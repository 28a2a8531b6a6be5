package chen

import (
	"accrual/internal/core"
)

var _ core.EvalSnapshotter = (*Detector)(nil)

// EvalSnapshot publishes the detector's frozen interpretation function
// (core.EvalSnapshotter): between heartbeats the level is the lateness
// past the expected arrival EA in level units, so the precomputed EA,
// the unit and ε are the whole state. Before the first heartbeat EA is
// start+η, exactly as Suspicion assumes.
func (d *Detector) EvalSnapshot() core.EvalSnapshot {
	ea, ok := d.ExpectedArrival()
	if !ok {
		ea = d.start.Add(d.interval)
	}
	return core.EvalSnapshot{
		Kind: core.EvalLateness,
		Ref:  core.EvalNanos(ea),
		P1:   float64(d.unit),
		Eps:  d.eps,
	}
}
