package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"accrual/internal/core"
	"accrual/internal/transform"
)

// ErrBadThresholds is returned by NewQoS and SetThresholds when the
// reference thresholds are inverted or negative: Algorithm 3 requires
// T(t) > T₀(t) ≥ 0, otherwise every query would flap between suspect
// and trust.
var ErrBadThresholds = fmt.Errorf("telemetry: invalid hysteresis thresholds (need high > low >= 0)")

// QoS maintains streaming estimates of the §2 accuracy metrics for every
// monitored process. Each process gets a reference interpreter — the
// Algorithm 3 two-threshold detector D'_T over its suspicion level — and
// every sampled level advances that interpreter by one query; the
// resulting S-/T-transitions feed the same accumulators internal/qos
// derives offline, so the online estimates converge to qos.Evaluate over
// the identical sampled transition trace.
//
// Completeness is covered too: a process can be marked as crashed
// (MarkCrashed), and when it is then deregistered while the reference
// interpreter suspects it, the span from the crash to the final
// S-transition is recorded as a detection-time (T_D) sample.
//
// QoS is safe for concurrent use; one mutex guards the estimator map
// (sampling, scraping and deregistration are all orders of magnitude
// rarer than heartbeat ingest, which never touches this lock).
type QoS struct {
	high, low core.Level

	mu    sync.Mutex
	procs map[string]*procEstimator

	detCount int
	detSum   time.Duration
	detMax   time.Duration
}

// NewQoS returns an online estimator set using the given reference
// thresholds (suspect above high, trust again at or below low). The
// thresholds must satisfy high > low >= 0; anything else returns
// ErrBadThresholds.
func NewQoS(high, low core.Level) (*QoS, error) {
	if err := checkThresholds(high, low); err != nil {
		return nil, err
	}
	return &QoS{high: high, low: low, procs: make(map[string]*procEstimator)}, nil
}

func checkThresholds(high, low core.Level) error {
	// The NaN comparisons are deliberate: NaN fails high > low.
	if !(high > low && low >= 0) || !high.IsFinite() {
		return fmt.Errorf("%w: high=%v low=%v", ErrBadThresholds, high, low)
	}
	return nil
}

// Thresholds returns the reference interpreter thresholds.
func (q *QoS) Thresholds() (high, low core.Level) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.high, q.low
}

// SetThresholds replaces the reference interpreter thresholds at
// runtime — the autotuner's dynamic T(t)/T₀(t). Inverted or negative
// pairs are rejected with ErrBadThresholds and leave the current
// thresholds in place. The swap is atomic with respect to concurrent
// Sample/Observe rounds: every per-process hysteresis reads the live
// thresholds under the same mutex that serialises its queries, so a
// retune mid-sample cannot record a spurious transition against a
// half-updated pair.
func (q *QoS) SetThresholds(high, low core.Level) error {
	if err := checkThresholds(high, low); err != nil {
		return err
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	q.high, q.low = high, low
	return nil
}

// procEstimator is the streaming state of one monitored process.
type procEstimator struct {
	level  core.Level
	hyst   *transform.Hysteresis
	status core.Status

	firstAt time.Time // first observation
	lastAt  time.Time // latest observation
	accEnd  time.Time // end of the accuracy window (capped at crashAt)
	samples int

	trusted time.Duration // time spent trusted within the accuracy window

	sCount, tCount int
	lastS, lastT   time.Time
	haveS, haveT   bool

	sumTMR, sumTM, sumTG time.Duration
	nTMR, nTM, nTG       int

	crashAt time.Time // zero while the process is presumed alive
}

// Estimate is a point-in-time view of one process's online QoS metrics.
// Metrics that are not yet estimable are NaN: λ_M and P_A before any
// observation time has accrued, the mean durations before their first
// sample. The NaN convention flows straight into the Prometheus
// exposition, which renders NaN verbatim.
type Estimate struct {
	ID string
	// Level is the most recently observed suspicion level.
	Level core.Level
	// Status is the reference interpreter's current output.
	Status core.Status
	// Observed is the accuracy window accumulated so far (observation
	// time, capped at the crash mark if any).
	Observed time.Duration
	// Samples counts level observations.
	Samples int
	// STransitions and TTransitions count reference transitions inside
	// the accuracy window.
	STransitions, TTransitions int
	// LambdaM is the estimated mistake rate in S-transitions per second.
	LambdaM float64
	// PA is the estimated query accuracy probability.
	PA float64
	// TMR, TM and TG are the mean mistake recurrence, mistake duration
	// and good period in seconds.
	TMR, TM, TG float64
}

// NotEstimable returns the all-NaN estimate rendered for a process the
// estimators have not observed yet (registered, never sampled). The
// exposition layer uses it so every monitored process appears in the
// scrape with a stable set of series from the moment it registers.
func NotEstimable(id string) Estimate {
	nan := math.NaN()
	return Estimate{
		ID:      id,
		Level:   core.Level(nan),
		LambdaM: nan,
		PA:      nan,
		TMR:     nan,
		TM:      nan,
		TG:      nan,
	}
}

// LevelSource is the level stream the sampler polls — implemented by
// service.Monitor (EachLevel walks the registry shard by shard at one
// clock reading).
type LevelSource interface {
	Now() time.Time
	EachLevel(fn func(id string, lvl core.Level))
}

// Sample observes every process of src once, at src's current clock
// reading. This is one polling round of the online estimators.
func (q *QoS) Sample(src LevelSource) {
	now := src.Now()
	q.mu.Lock()
	defer q.mu.Unlock()
	src.EachLevel(func(id string, lvl core.Level) {
		q.observeLocked(id, lvl, now)
	})
}

// Observe feeds one (process, level, time) observation. Observations for
// one process must be fed in non-decreasing time order.
func (q *QoS) Observe(id string, lvl core.Level, now time.Time) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.observeLocked(id, lvl, now)
}

func (q *QoS) observeLocked(id string, lvl core.Level, now time.Time) {
	pe := q.procs[id]
	if pe == nil {
		pe = &procEstimator{status: core.Trusted, firstAt: now, lastAt: now, accEnd: now}
		// The hysteresis source reads the estimator's latest pushed
		// level; each observation below becomes exactly one Algorithm 3
		// query. The thresholds are read through q at query time — not
		// captured by value — so SetThresholds retunes every existing
		// interpreter. Both reads happen under q.mu (Query is only
		// reached from observeLocked), so the pair is always coherent.
		pe.hyst = transform.NewHysteresisFunc(
			func(time.Time) core.Level { return pe.level },
			func(time.Time) core.Level { return q.high },
			func(time.Time) core.Level { return q.low },
		)
		q.procs[id] = pe
	}

	// Accrue the time spent in the current status over [lastAt, now],
	// clipped to the accuracy window (which ends at the crash mark).
	accEnd := now
	if !pe.crashAt.IsZero() && pe.crashAt.Before(accEnd) {
		accEnd = pe.crashAt
	}
	if accEnd.After(pe.accEnd) {
		if pe.status == core.Trusted {
			pe.trusted += accEnd.Sub(pe.accEnd)
		}
		pe.accEnd = accEnd
	}

	pe.level = lvl
	pe.samples++
	pe.lastAt = now
	if st := pe.hyst.Query(now); st != pe.status {
		inWindow := pe.crashAt.IsZero() || !now.After(pe.crashAt)
		switch st {
		case core.Suspected: // S-transition
			if inWindow {
				pe.sCount++
				if pe.haveS {
					pe.sumTMR += now.Sub(pe.lastS)
					pe.nTMR++
				}
				if pe.haveT {
					pe.sumTG += now.Sub(pe.lastT)
					pe.nTG++
				}
			}
			pe.lastS, pe.haveS = now, true
		case core.Trusted: // T-transition
			if inWindow {
				pe.tCount++
				if pe.haveS {
					pe.sumTM += now.Sub(pe.lastS)
					pe.nTM++
				}
			}
			pe.lastT, pe.haveT = now, true
		}
		pe.status = st
	}
}

// MarkCrashed records that the process actually crashed at the given
// instant: accuracy accounting stops there, and the eventual
// deregistration turns the reference interpreter's final S-transition
// into a detection-time sample. It reports whether the process was
// known to the estimators.
func (q *QoS) MarkCrashed(id string, at time.Time) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	pe := q.procs[id]
	if pe == nil {
		return false
	}
	if pe.crashAt.IsZero() || at.Before(pe.crashAt) {
		pe.crashAt = at
	}
	return true
}

// Forget drops a process's estimator state (on deregistration). If the
// process was marked crashed and the reference interpreter suspects it,
// the crash counts as detected and T_D — from the crash mark to the
// final S-transition, zero when it was already suspected at the crash —
// becomes a detection-time sample.
func (q *QoS) Forget(id string, now time.Time) {
	q.mu.Lock()
	defer q.mu.Unlock()
	pe := q.procs[id]
	if pe == nil {
		return
	}
	if pe.lastAt.After(now) {
		// The estimator has observations newer than this deregistration
		// instant: the id has already been re-registered (slab handles
		// are reused) and sampled, so this state belongs to the
		// successor. Keep it, and record nothing — the predecessor's
		// detection outcome is unknowable at this point.
		return
	}
	delete(q.procs, id)
	if pe.crashAt.IsZero() || pe.status != core.Suspected {
		return
	}
	var td time.Duration
	if pe.haveS && pe.lastS.After(pe.crashAt) {
		td = pe.lastS.Sub(pe.crashAt)
	}
	q.detCount++
	q.detSum += td
	if td > q.detMax {
		q.detMax = td
	}
}

// DetectionStats summarises the detection-time samples recorded so far.
func (q *QoS) DetectionStats() (count int, mean, max time.Duration) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.detCount > 0 {
		mean = q.detSum / time.Duration(q.detCount)
	}
	return q.detCount, mean, q.detMax
}

// Estimate returns the current estimate for one process.
func (q *QoS) Estimate(id string) (Estimate, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	pe := q.procs[id]
	if pe == nil {
		return Estimate{}, false
	}
	return pe.estimate(id), true
}

// Estimates returns the current estimates of every tracked process,
// sorted by id.
func (q *QoS) Estimates() []Estimate {
	q.mu.Lock()
	out := make([]Estimate, 0, len(q.procs))
	for id, pe := range q.procs {
		out = append(out, pe.estimate(id))
	}
	q.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (pe *procEstimator) estimate(id string) Estimate {
	est := Estimate{
		ID:           id,
		Level:        pe.level,
		Status:       pe.status,
		Observed:     pe.accEnd.Sub(pe.firstAt),
		Samples:      pe.samples,
		STransitions: pe.sCount,
		TTransitions: pe.tCount,
		LambdaM:      math.NaN(),
		PA:           math.NaN(),
		TMR:          math.NaN(),
		TM:           math.NaN(),
		TG:           math.NaN(),
	}
	if est.Observed > 0 {
		est.LambdaM = float64(pe.sCount) / est.Observed.Seconds()
		est.PA = float64(pe.trusted) / float64(est.Observed)
	}
	if pe.nTMR > 0 {
		est.TMR = (pe.sumTMR / time.Duration(pe.nTMR)).Seconds()
	}
	if pe.nTM > 0 {
		est.TM = (pe.sumTM / time.Duration(pe.nTM)).Seconds()
	}
	if pe.nTG > 0 {
		est.TG = (pe.sumTG / time.Duration(pe.nTG)).Seconds()
	}
	return est
}

// Aggregate is a fleet-level rollup of the per-process estimates, cheap
// enough for the autotuner to take every controller round.
type Aggregate struct {
	// Procs is the number of processes with estimator state; Estimable
	// is how many of them have accrued observation time.
	Procs, Estimable int
	// Suspected counts processes the reference interpreter currently
	// suspects.
	Suspected int
	// MeanLambdaM and MeanPA average the estimable processes' mistake
	// rate and query accuracy (NaN when nothing is estimable yet).
	MeanLambdaM, MeanPA float64
	// MeanTM averages the mean mistake durations of processes that have
	// completed at least one mistake (NaN when none has).
	MeanTM float64
}

// AggregateEstimates folds every process's current estimate into one
// fleet-level Aggregate. It allocates nothing: the fold runs over the
// estimator map under the mutex and returns a value struct.
func (q *QoS) AggregateEstimates() Aggregate {
	q.mu.Lock()
	defer q.mu.Unlock()
	agg := Aggregate{
		Procs:       len(q.procs),
		MeanLambdaM: math.NaN(),
		MeanPA:      math.NaN(),
		MeanTM:      math.NaN(),
	}
	var sumLambda, sumPA, sumTM float64
	var nTM int
	for _, pe := range q.procs {
		if pe.status == core.Suspected {
			agg.Suspected++
		}
		observed := pe.accEnd.Sub(pe.firstAt)
		if observed > 0 {
			agg.Estimable++
			sumLambda += float64(pe.sCount) / observed.Seconds()
			sumPA += float64(pe.trusted) / float64(observed)
		}
		if pe.nTM > 0 {
			sumTM += (pe.sumTM / time.Duration(pe.nTM)).Seconds()
			nTM++
		}
	}
	if agg.Estimable > 0 {
		agg.MeanLambdaM = sumLambda / float64(agg.Estimable)
		agg.MeanPA = sumPA / float64(agg.Estimable)
	}
	if nTM > 0 {
		agg.MeanTM = sumTM / float64(nTM)
	}
	return agg
}

// Len returns how many processes currently have estimator state.
func (q *QoS) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.procs)
}
