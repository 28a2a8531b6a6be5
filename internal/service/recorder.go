package service

import (
	"sync"
	"sync/atomic"
	"time"

	"accrual/internal/core"
)

// Recorder samples every monitored process's suspicion level on a fixed
// cadence into per-process ring buffers, giving operators a recent level
// history for dashboards and postmortems (served by the HTTP API as
// /v1/history). Create one with NewRecorder; it samples on Tick, which a
// Watcher-style goroutine (StartRecorder) or the simulator drives.
//
// A history is a window of the last capacity ticks, not of the last
// capacity samples: a process's ring holds the levels it had on those
// ticks it was sampled on, and a tick it missed (it was deregistered at
// the time) is absent from its history. The two windows differ only for
// an id that left and came back within capacity ticks. Every process
// sampled on one tick shares that tick's time, which the recorder stores
// once for the whole fleet, so a ring costs about 8 bytes per sample.
//
// A process absent from capacity consecutive ticks (deregistered, or
// replaced under a new id) has its ring dropped: its history stays
// available for one full window after it leaves, and churn cannot grow
// the recorder without bound.
type Recorder struct {
	mon      *Monitor
	capacity int

	// tickMu serialises sampling rounds and guards scratch; it is never
	// held together with mu, so a tick in progress cannot block History
	// or Ticks for longer than one merge.
	tickMu  sync.Mutex
	scratch []levelSample

	mu      sync.Mutex
	times   []time.Time // tick k's monitor-clock time, at k % capacity
	byProc  map[string]*ring
	samples int64

	lastTick atomic.Int64 // unix nanoseconds of the latest completed tick
}

// levelSample is one (process, level) pair collected during a tick
// before it is merged into the rings.
type levelSample struct {
	id  string
	lvl core.Level
}

// ring is one process's levels over the recorder's window: the level
// sampled on tick k sits at levels[k % capacity]. A process sampled on
// every tick since its ring was made needs nothing more; the first tick
// it misses allocates present, whose bit k % capacity from then on says
// whether tick k sampled the process at all. Both slices are pointer-free.
type ring struct {
	levels  []core.Level
	present []uint64
	first   int64 // the tick that made the ring
	seen    int64 // the tick (Recorder.samples) that last pushed a sample
}

func newRing(capacity int, tick int64) *ring {
	return &ring{levels: make([]core.Level, capacity), first: tick, seen: tick - 1}
}

// push records lvl as the sample of tick, first marking absent every
// tick in the window since the previous push.
func (r *ring) push(tick int64, lvl core.Level) {
	c := int64(len(r.levels))
	if r.seen+1 < tick {
		if r.present == nil {
			r.present = make([]uint64, (c+63)/64)
			for k := max(r.first, tick-c+1); k <= r.seen; k++ {
				r.mark(k, true)
			}
		}
		for k := max(r.seen+1, tick-c+1); k < tick; k++ {
			r.mark(k, false)
		}
	}
	r.levels[tick%c] = lvl
	if r.present != nil {
		r.mark(tick, true)
	}
	r.seen = tick
}

func (r *ring) mark(k int64, sampled bool) {
	i := k % int64(len(r.levels))
	if sampled {
		r.present[i/64] |= 1 << (i % 64)
	} else {
		r.present[i/64] &^= 1 << (i % 64)
	}
}

// sampled reports whether tick k, which must lie in the window and not
// after the last push, sampled the process.
func (r *ring) sampled(k int64) bool {
	if r.present == nil {
		return k >= r.first
	}
	i := k % int64(len(r.levels))
	return r.present[i/64]&(1<<(i%64)) != 0
}

// NewRecorder returns a recorder over mon keeping each process's samples
// from the last capacity ticks (capacity below 1 is raised to 1).
func NewRecorder(mon *Monitor, capacity int) *Recorder {
	if capacity < 1 {
		capacity = 1
	}
	return &Recorder{
		mon:      mon,
		capacity: capacity,
		times:    make([]time.Time, capacity),
		byProc:   make(map[string]*ring),
	}
}

// Tick takes one sample of every monitored process. Call it on whatever
// cadence the history should have. It streams the levels shard by shard
// through Monitor.EachLevel, so a tick neither pauses the whole registry
// nor allocates an intermediate snapshot map.
//
// The walk — which evaluates every detector — runs without holding the
// ring lock: levels are collected into a reusable scratch buffer first
// and merged into the rings afterwards, so concurrent History and Ticks
// calls wait only for the merge (map pushes), never for a registry-wide
// round of detector evaluations.
func (r *Recorder) Tick() {
	now := r.mon.Now()
	r.tickMu.Lock()
	defer r.tickMu.Unlock()
	r.scratch = r.scratch[:0]
	r.mon.EachLevel(func(id string, lvl core.Level) {
		r.scratch = append(r.scratch, levelSample{id: id, lvl: lvl})
	})
	r.mu.Lock()
	r.samples++
	tick := r.samples
	r.times[tick%int64(r.capacity)] = now
	for _, s := range r.scratch {
		rg, ok := r.byProc[s.id]
		if !ok {
			rg = newRing(r.capacity, tick)
			r.byProc[s.id] = rg
		}
		rg.push(tick, s.lvl)
	}
	// Every ring was pushed this tick unless the map outgrew the sample
	// set, so the sweep runs only when some process is absent.
	if len(r.byProc) > len(r.scratch) {
		for id, rg := range r.byProc {
			if tick-rg.seen >= int64(r.capacity) {
				delete(r.byProc, id)
			}
		}
	}
	r.mu.Unlock()
	r.lastTick.Store(now.UnixNano())
}

// LastTick returns the monitor-clock time of the latest completed
// sampling round (the zero time before the first). Lock-free, so the
// /v1/metrics scrape can report recorder staleness without queueing
// behind a tick in progress.
func (r *Recorder) LastTick() time.Time {
	ns := r.lastTick.Load()
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// History returns the recorded samples for one process, oldest first,
// each stamped with its tick's time. The second result is false when the
// process has never been sampled, or has been absent long enough for its
// ring to be dropped.
func (r *Recorder) History(id string) ([]core.QueryRecord, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rg, ok := r.byProc[id]
	if !ok {
		return nil, false
	}
	// A kept ring's last sample is inside the window (the drop rule), so
	// the walk runs from the window's oldest tick up to that sample.
	c := int64(r.capacity)
	from := max(r.samples-c+1, 1)
	out := make([]core.QueryRecord, 0, rg.seen-from+1)
	for k := from; k <= rg.seen; k++ {
		if rg.sampled(k) {
			i := k % c
			out = append(out, core.QueryRecord{At: r.times[i], Level: rg.levels[i]})
		}
	}
	return out, true
}

// Ticks returns how many sampling rounds have run.
func (r *Recorder) Ticks() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.samples
}

// RecorderRunner drives a Recorder from its own goroutine at a fixed
// period. Stop is idempotent and joins the goroutine.
type RecorderRunner struct {
	rec   *Recorder
	every time.Duration

	mu      sync.Mutex
	done    chan struct{}
	stopped chan struct{}
}

// StartRecorder launches the sampling loop (non-positive periods default
// to one second).
func StartRecorder(rec *Recorder, every time.Duration) *RecorderRunner {
	if every <= 0 {
		every = time.Second
	}
	rr := &RecorderRunner{
		rec:     rec,
		every:   every,
		done:    make(chan struct{}),
		stopped: make(chan struct{}),
	}
	go rr.loop()
	return rr
}

func (rr *RecorderRunner) loop() {
	defer close(rr.stopped)
	ticker := time.NewTicker(rr.every)
	defer ticker.Stop()
	for {
		select {
		case <-rr.done:
			return
		case <-ticker.C:
			rr.rec.Tick()
		}
	}
}

// Stop terminates the sampling loop and waits for it to exit.
func (rr *RecorderRunner) Stop() {
	rr.mu.Lock()
	select {
	case <-rr.done:
		rr.mu.Unlock()
		<-rr.stopped
		return
	default:
	}
	close(rr.done)
	rr.mu.Unlock()
	<-rr.stopped
}
