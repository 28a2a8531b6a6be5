package main

import (
	"math"
	"math/bits"
	"slices"
	"sync/atomic"
	"time"

	"accrual/internal/bertier"
	"accrual/internal/chen"
	"accrual/internal/core"
	"accrual/internal/kappa"
	"accrual/internal/phi"
	"accrual/internal/service"
	"accrual/internal/simple"
)

// hist is a lock-free log-linear histogram of non-negative nanosecond
// values: 32 sub-buckets per power of two (about 3% per bucket), with
// quantiles interpolated inside the bucket so they vary continuously
// with the data. Adds are single atomic increments, so the ingest
// workers record into it concurrently without a lock.
type hist struct {
	counts [histBuckets]atomic.Uint64
}

const (
	histSubBits = 5
	histSub     = 1 << histSubBits
	histMaxExp  = 42 // values up to 2^42 ns (about 73 minutes)
	histBuckets = (histMaxExp + 2) * histSub
)

func histIndex(v int64) int {
	if v < 2*histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - histSubBits - 1
	if shift > histMaxExp {
		return histBuckets - 1
	}
	return (shift+1)*histSub + int(uint64(v)>>shift) - histSub
}

// histBounds returns the [lo, hi) value range of bucket i.
func histBounds(i int) (lo, hi float64) {
	if i < 2*histSub {
		return float64(i), float64(i + 1)
	}
	shift := i/histSub - 1
	top := i%histSub + histSub
	return float64(uint64(top) << shift), float64(uint64(top+1) << shift)
}

func (h *hist) add(v int64) { h.counts[histIndex(v)].Add(1) }

func (h *hist) count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// quantile returns the q-quantile (0 < q ≤ 1), linearly interpolated
// within its bucket, or NaN when the histogram is empty.
func (h *hist) quantile(q float64) float64 {
	n := h.count()
	if n == 0 {
		return math.NaN()
	}
	rank := q * float64(n)
	var seen float64
	for i := range h.counts {
		c := float64(h.counts[i].Load())
		if c == 0 {
			continue
		}
		if seen+c >= rank {
			lo, hi := histBounds(i)
			return lo + (hi-lo)*(rank-seen)/c
		}
		seen += c
	}
	lo, _ := histBounds(histBuckets - 1)
	return lo
}

// beatSpan is one traced beat: its due time (carried in Sent), the
// listener's arrival stamp, and the wrapped Report's entry and exit, all
// wall-clock Unix nanoseconds.
type beatSpan struct {
	due, arrived, entry, exit int64
}

// subWindows is how many equal parts a window's tail percentiles are
// taken over; the reported tail is the median of the parts' tails, so
// one stall in one part cannot swing a run's figure.
const subWindows = 10

// obsWindow counts the beats due inside one measured window.
type obsWindow struct {
	start, end atomic.Int64 // due-time bounds, Unix ns: [start, end)
	visible    atomic.Uint64
	vis        hist             // due → Report return
	sub        [subWindows]hist // the same, per sub-window
}

// subTail is the median over the sub-windows of each one's q-quantile.
func (w *obsWindow) subTail(q float64) float64 {
	var tails sample
	for i := range w.sub {
		tails = append(tails, w.sub[i].quantile(q))
	}
	return tails.quantile(0.5)
}

// obs is what the benchmark's detector wrappers report into. Untraced,
// a wrapped Report costs one clock read after the inner Report returns
// (the visibility stamp) and a few atomic adds; traced, it also stamps
// the entry, times EvalSnapshot, and keeps a span per beat in memory.
type obs struct {
	tracing atomic.Bool
	win     [2]obsWindow

	reports atomic.Uint64 // every wrapped Report call
	// phiUnfitted counts φ detectors built that have not yet published
	// a fitted (non-EvalZero) snapshot.
	phiUnfitted atomic.Int64

	reportNs [numKinds]hist // traced: Report duration per kind
	snapNs   [numKinds]hist // traced: EvalSnapshot duration per kind
	spans    []beatSpan     // traced: set before tracing is switched on
	spanN    atomic.Int64
}

// resetRun clears the per-stack counters before a new set-up.
func (o *obs) resetRun() {
	o.reports.Store(0)
	o.phiUnfitted.Store(0)
}

func (o *obs) setWindows(ws [][2]int64) {
	for i, w := range ws {
		o.win[i].start.Store(w[0])
		o.win[i].end.Store(w[1])
	}
}

func (o *obs) enter() int64 {
	if o.tracing.Load() {
		return time.Now().UnixNano()
	}
	return 0
}

func (o *obs) reported(kind int, hb core.Heartbeat, entry int64) {
	now := time.Now().UnixNano()
	o.reports.Add(1)
	due := hb.Sent.UnixNano()
	for i := range o.win {
		w := &o.win[i]
		if due < w.start.Load() || due >= w.end.Load() {
			continue
		}
		w.visible.Add(1)
		w.vis.add(now - due)
		w.sub[subIndex(due, w.start.Load(), w.end.Load())].add(now - due)
		if entry == 0 {
			return
		}
		o.reportNs[kind].add(now - entry)
		if i := o.spanN.Add(1) - 1; i < int64(len(o.spans)) {
			o.spans[i] = beatSpan{due: due, arrived: hb.Arrived.UnixNano(), entry: entry, exit: now}
		}
		return
	}
}

func (o *obs) snapped(kind int, s core.EvalSnapshot, entry int64) {
	if entry != 0 {
		o.snapNs[kind].add(time.Now().UnixNano() - entry)
	}
}

// The wrappers embed the concrete detector, so every optional interface
// it implements (state snapshots, retuning, tune info) is promoted
// unchanged; only Report and EvalSnapshot are intercepted.

type phiDet struct {
	*phi.Detector
	o      *obs
	fitted bool // guarded, like the detector, by the registry's entry lock
}

func (d *phiDet) Report(hb core.Heartbeat) {
	t := d.o.enter()
	d.Detector.Report(hb)
	d.o.reported(kindPhi, hb, t)
}

func (d *phiDet) EvalSnapshot() core.EvalSnapshot {
	t := d.o.enter()
	s := d.Detector.EvalSnapshot()
	if !d.fitted && s.Kind != core.EvalZero {
		d.fitted = true
		d.o.phiUnfitted.Add(-1)
	}
	d.o.snapped(kindPhi, s, t)
	return s
}

type chenDet struct {
	*chen.Detector
	o *obs
}

func (d *chenDet) Report(hb core.Heartbeat) {
	t := d.o.enter()
	d.Detector.Report(hb)
	d.o.reported(kindChen, hb, t)
}

func (d *chenDet) EvalSnapshot() core.EvalSnapshot {
	t := d.o.enter()
	s := d.Detector.EvalSnapshot()
	d.o.snapped(kindChen, s, t)
	return s
}

type kappaDet struct {
	*kappa.Detector
	o *obs
}

func (d *kappaDet) Report(hb core.Heartbeat) {
	t := d.o.enter()
	d.Detector.Report(hb)
	d.o.reported(kindKappa, hb, t)
}

func (d *kappaDet) EvalSnapshot() core.EvalSnapshot {
	t := d.o.enter()
	s := d.Detector.EvalSnapshot()
	d.o.snapped(kindKappa, s, t)
	return s
}

type bertierDet struct {
	*bertier.Detector
	o *obs
}

func (d *bertierDet) Report(hb core.Heartbeat) {
	t := d.o.enter()
	d.Detector.Report(hb)
	d.o.reported(kindBertier, hb, t)
}

func (d *bertierDet) EvalSnapshot() core.EvalSnapshot {
	t := d.o.enter()
	s := d.Detector.EvalSnapshot()
	d.o.snapped(kindBertier, s, t)
	return s
}

type simpleDet struct {
	*simple.Detector
	o *obs
}

func (d *simpleDet) Report(hb core.Heartbeat) {
	t := d.o.enter()
	d.Detector.Report(hb)
	d.o.reported(kindSimple, hb, t)
}

func (d *simpleDet) EvalSnapshot() core.EvalSnapshot {
	t := d.o.enter()
	s := d.Detector.EvalSnapshot()
	d.o.snapped(kindSimple, s, t)
	return s
}

// detectorFactory builds each kind exactly as cmd/accruald's
// detectorFactory does for the same flags (bertier, which accruald's
// -detector flag does not offer, with bertier.New(start, interval)),
// picking the kind from the id prefix and wrapping it for measurement.
func detectorFactory(interval time.Duration, profile service.Profile, o *obs) service.Factory {
	phiWindow := profile.EstimatorWindow(200)
	chenWindow := profile.EstimatorWindow(100)
	return func(id string, start time.Time) core.Detector {
		switch kindOf(id) {
		case kindChen:
			return &chenDet{chen.New(start, interval, chen.WithWindowSize(chenWindow)), o}
		case kindKappa:
			return &kappaDet{kappa.New(start, kappa.PLater{}, kappa.WithFixedInterval(interval)), o}
		case kindBertier:
			return &bertierDet{bertier.New(start, interval), o}
		case kindSimple:
			return &simpleDet{simple.New(start), o}
		default:
			o.phiUnfitted.Add(1)
			return &phiDet{Detector: phi.New(start, phi.WithBootstrap(interval, interval/4), phi.WithWindowSize(phiWindow)), o: o}
		}
	}
}

// subIndex is the sub-window of instant t inside [start, end).
func subIndex(t, start, end int64) int {
	return int(min(subWindows-1, max(0, (t-start)*subWindows/(end-start))))
}

// subTail splits (instant, value) pairs over the sub-windows of
// [start, end) and returns the median of the non-empty parts'
// q-quantiles and the smallest non-empty part's size.
func subTail(at []int64, vals sample, start, end int64, q float64) (float64, int) {
	var parts [subWindows]sample
	for i, t := range at {
		k := subIndex(t, start, end)
		parts[k] = append(parts[k], vals[i])
	}
	var tails sample
	least := len(vals)
	for _, p := range parts {
		if len(p) == 0 {
			continue // a part with nothing due in it (crashes stop early)
		}
		tails = append(tails, p.quantile(q))
		least = min(least, len(p))
	}
	return tails.quantile(0.5), least
}

// sample is a plain list of measurements with exact order statistics,
// for the low-rate timings (queries, scrapes, detections, consumer
// calls).
type sample []float64

// quantile is the nearest-rank q-quantile, NaN when empty.
func (s sample) quantile(q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	c := slices.Clone(s)
	slices.Sort(c)
	i := int(math.Ceil(q*float64(len(c)))) - 1
	return c[max(0, min(i, len(c)-1))]
}

// tail is the highest whole percentile with at least ten samples beyond
// it, and the value there (NaN below eleven samples).
func (s sample) tail() (pct int, v float64) {
	n := len(s)
	if n < 11 {
		return 0, math.NaN()
	}
	pct = int(math.Floor(100 * float64(n-10) / float64(n)))
	return pct, s.quantile(float64(pct) / 100)
}
