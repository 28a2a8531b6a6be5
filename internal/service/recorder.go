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

type ring struct {
	buf  []core.QueryRecord
	head int
	n    int
	seen int64 // the tick (Recorder.samples) that last pushed a sample
}

func (r *ring) push(rec core.QueryRecord) {
	if r.n < len(r.buf) {
		r.buf[(r.head+r.n)%len(r.buf)] = rec
		r.n++
		return
	}
	r.buf[r.head] = rec
	r.head = (r.head + 1) % len(r.buf)
}

func (r *ring) snapshot() []core.QueryRecord {
	out := make([]core.QueryRecord, r.n)
	for i := 0; i < r.n; i++ {
		out[i] = r.buf[(r.head+i)%len(r.buf)]
	}
	return out
}

// NewRecorder returns a recorder over mon keeping the last capacity
// samples per process (capacity below 1 is raised to 1).
func NewRecorder(mon *Monitor, capacity int) *Recorder {
	if capacity < 1 {
		capacity = 1
	}
	return &Recorder{
		mon:      mon,
		capacity: capacity,
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
	for _, s := range r.scratch {
		rg, ok := r.byProc[s.id]
		if !ok {
			rg = &ring{buf: make([]core.QueryRecord, r.capacity)}
			r.byProc[s.id] = rg
		}
		rg.push(core.QueryRecord{At: now, Level: s.lvl})
		rg.seen = r.samples
	}
	// Every ring was pushed this tick unless the map outgrew the sample
	// set, so the sweep runs only when some process is absent.
	if len(r.byProc) > len(r.scratch) {
		for id, rg := range r.byProc {
			if r.samples-rg.seen >= int64(r.capacity) {
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

// History returns the recorded samples for one process, oldest first.
// The second result is false when the process has never been sampled,
// or has been absent long enough for its ring to be dropped.
func (r *Recorder) History(id string) ([]core.QueryRecord, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rg, ok := r.byProc[id]
	if !ok {
		return nil, false
	}
	return rg.snapshot(), true
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
