package telemetry

import "sync/atomic"

// WalkCounters tracks the lock-free evaluation plane's full-registry
// walks (service.Monitor.EachLevel and friends). Walks are low-rate
// relative to heartbeat ingest — sampler, gossip and scrape cadences —
// so a plain atomic suffices; everything here is allocation-free.
type WalkCounters struct {
	// Runs counts full-registry evaluation passes executed.
	Runs atomic.Uint64
}

// Run counts one executed full-registry pass.
func (w *WalkCounters) Run() { w.Runs.Add(1) }

// WalkStats is a point-in-time snapshot of WalkCounters.
type WalkStats struct {
	Runs uint64
	// Coalesced is always 0: every fleet reader runs its own pass. The
	// field is kept only so the perfbench module, which reads it, still
	// builds.
	Coalesced uint64
}

// Snapshot reads every counter once.
func (w *WalkCounters) Snapshot() WalkStats {
	return WalkStats{Runs: w.Runs.Load()}
}
