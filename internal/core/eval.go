package core

import (
	"math"
	"time"

	"accrual/internal/stats"
)

// This file defines the lock-free evaluation contract: the compact,
// immutable parameter snapshot a detector publishes on every state
// change so that full-fleet readers can evaluate suspicion levels
// without taking the detector's lock or calling into the detector at
// all.
//
// The contract exploits the paper's central decoupling. Between
// heartbeats a detector's state is frozen: the suspicion level is a
// pure, monotone function of the time elapsed since the last arrival,
// given the frozen inter-arrival estimate (Definition 1 — the level
// accrues with elapsed time, the estimate only moves on monitoring
// input). Every detector in this module reduces to a handful of scalar
// parameters between arrivals — φ and Bertier to (mean, stddev) /
// (EA, margin), Chen to EA, Algorithm 4 to t_last, κ to the estimate
// feeding its contribution curve — so those scalars plus Level are the
// detector's interpretation function. The detectors define Suspicion
// through it, and readers holding the scalars evaluate it for any now
// with pure arithmetic.

// EvalKind discriminates the evaluator shape of an EvalSnapshot.
type EvalKind uint32

const (
	// EvalNone means no snapshot is available: the detector does not
	// implement EvalSnapshotter (or the slot is unbound). Readers must
	// fall back to the locked Suspicion path.
	EvalNone EvalKind = iota
	// EvalZero is the degenerate snapshot of a detector with no
	// estimate yet (φ or κ before any inter-arrival sample): the level
	// is 0 for every now.
	EvalZero
	// EvalElapsed is Algorithm 4 (internal/simple):
	// level = max(0, now−Ref) / P1, with Ref = t_last and P1 the level
	// unit in nanoseconds.
	EvalElapsed
	// EvalLateness is Chen's accrual form (internal/chen):
	// level = max(0, now−Ref) / P1, with Ref = EA (the expected arrival
	// of the next heartbeat) and P1 the level unit in nanoseconds.
	// Strictly-negative lateness clamps to 0 before the division, so
	// the two kinds differ only in what Ref means.
	EvalLateness
	// EvalLatenessMargin is Bertier's accrual form (internal/bertier):
	// lateness = max(0, now−Ref)/P2 (the embedded Chen estimator's
	// level, unit P2 ns); level = lateness/P1 when lateness > 0, with
	// P1 the adaptive margin in seconds.
	EvalLatenessMargin
	// EvalPhiNormal is the φ detector under its normal inter-arrival
	// model: Ref = t_last, P1 = μ (seconds, acceptable pause included),
	// P2 = σ (seconds, floored).
	EvalPhiNormal
	// EvalPhiExponential is φ under the exponential model:
	// Ref = t_last, P1 = the distribution mean (seconds).
	EvalPhiExponential
	// EvalPhiErlang is φ under the Erlang model: Ref = t_last,
	// P1 = the fitted integer shape k, P2 = λ.
	EvalPhiErlang
	// EvalAuxKind delegates evaluation to the snapshot's Aux hook — the
	// escape hatch for detectors whose level needs more than the POD
	// parameters (κ's pluggable contribution curve).
	EvalAuxKind
)

// EvalSnapshot is a compact immutable parameter set sufficient to
// evaluate a detector's suspicion level at any instant at or after the
// snapshot was taken, without locks and without the detector. It is
// the detector's interpretation function, not a copy of it: every
// in-tree detector's Suspicion(now) is EvalSnapshot().Level(now).
//
// The meaning of Ref, P1 and P2 depends on Kind (see the constants).
// Ref is always an instant on the EvalNanos timeline: nanoseconds since
// a process-local epoch, measured monotonically whenever the instant
// carries a monotonic clock reading. Level measures now the same way,
// so a wall-clock step (an NTP correction, a VM resume) moves neither
// side and no level in the fleet jumps. Instants without a monotonic
// reading — the manual clocks of the simulator and the test suites,
// times restored from persisted state — fall back to wall arithmetic
// against the epoch's wall reading. Under the manual clocks that is
// exactly time.Time arithmetic between the two instants; a restored
// t_last paired with a real-clock now is off by any wall step since
// the epoch, until the next heartbeat replaces it.
//
// Snapshots are plain values: publishing one must not allocate, so a
// detector's EvalSnapshot method returns it by value and any Aux hook
// is allocated once at construction, never per publication.
type EvalSnapshot struct {
	Kind EvalKind
	// Ref is the reference instant as EvalNanos: t_last for
	// elapsed-time kinds, EA for lateness kinds.
	Ref int64
	// P1 and P2 are the kind-specific scalar parameters.
	P1 float64
	P2 float64
	// Eps is the detector's level resolution ε (Definition 1), applied
	// by Level.
	Eps Level
	// Aux is the evaluator hook of EvalAuxKind snapshots, nil
	// otherwise. Implementations must be immutable once published and
	// must have a comparable dynamic type (publish-side change
	// detection compares interface identities).
	Aux EvalAux
}

// EvalAux evaluates snapshot kinds whose level computation needs state
// beyond the POD parameters — κ's contribution curve is the in-tree
// case. now is an instant on the EvalNanos timeline. An implementation
// must be a pure function of (s, now): it runs concurrently on
// arbitrary reader goroutines with no synchronisation.
type EvalAux interface {
	EvalLevel(s EvalSnapshot, now int64) Level
}

// EvalSnapshotter is implemented by detectors that publish eval
// snapshots: the detector's interpretation function with its
// monitoring state frozen in. For the in-tree detectors Suspicion is
// defined through the snapshot, so the two cannot disagree.
//
// EvalSnapshot is called under the same external synchronisation as
// Report and Suspicion (the registry's entry lock); it must not
// allocate on the steady-state path, since it runs once per accepted
// heartbeat.
type EvalSnapshotter interface {
	EvalSnapshot() EvalSnapshot
}

// evalEpoch anchors the EvalNanos timeline. It carries a monotonic
// reading, so differences against real-clock instants are monotonic.
var evalEpoch = time.Now()

// EvalNanos returns t as nanoseconds since the process-local eval
// epoch — the timeline EvalSnapshot.Ref lives on. The conversion is
// t.Sub(epoch): monotonic when t carries a monotonic reading, wall
// arithmetic otherwise. Wall-only instants convert exactly within ±292
// years of the epoch — the 2005-era manual clocks of the simulator and
// tests are well inside; farther ones, such as the zero Time, saturate.
func EvalNanos(t time.Time) int64 { return int64(t.Sub(evalEpoch)) }

// Level evaluates the snapshot at now. It is pure, lock-free and
// allocation-free for every kind.
func (s EvalSnapshot) Level(now time.Time) Level { return s.LevelAt(EvalNanos(now)) }

// LevelAt is Level at an instant already converted with EvalNanos —
// the form fleet walks use, converting their one clock reading once
// rather than per process.
func (s EvalSnapshot) LevelAt(now int64) Level {
	var lvl float64
	switch s.Kind {
	case EvalElapsed, EvalLateness:
		d := now - s.Ref
		if d < 0 {
			return 0
		}
		lvl = float64(d) / s.P1
	case EvalLatenessMargin:
		d := now - s.Ref
		if d <= 0 {
			return 0
		}
		lvl = float64(d) / s.P2 / s.P1
	case EvalPhiNormal, EvalPhiExponential, EvalPhiErlang:
		// φ = −log₁₀ P_later(elapsed), computed in log space so it keeps
		// accruing far past the point where P_later underflows.
		elapsed := time.Duration(now - s.Ref).Seconds()
		if elapsed <= 0 {
			return 0
		}
		var logTail float64
		switch s.Kind {
		case EvalPhiNormal:
			logTail = stats.Normal{Mu: s.P1, Sigma: s.P2}.LogTail(elapsed)
		case EvalPhiExponential:
			logTail = stats.Exponential{MeanValue: s.P1}.LogTail(elapsed)
		default:
			logTail = stats.Erlang{K: int(s.P1), Lambda: s.P2}.LogTail(elapsed)
		}
		lvl = -logTail / math.Ln10
		if lvl <= 0 { // also normalises the −0.0 of logTail == 0
			return 0
		}
	case EvalAuxKind:
		if s.Aux == nil {
			return 0
		}
		return s.Aux.EvalLevel(s, now)
	default: // EvalNone, EvalZero
		return 0
	}
	return Level(lvl).Quantize(s.Eps)
}
