package main

import (
	"fmt"
	"time"

	"accrual/internal/core"
)

// Detector kinds, in the order the per-kind metrics are printed.
const (
	kindPhi = iota
	kindChen
	kindKappa
	kindBertier
	kindSimple
	numKinds
)

var kindNames = [numKinds]string{"phi", "chen", "kappa", "bertier", "simple"}

// kindThreshold is the fixed threshold of each kind's interpretation
// App, in that kind's level units: φ = −log₁₀ P_later, chen = seconds
// past the expected arrival, κ ≈ missed heartbeats, bertier = lateness
// in units of the adaptive margin, simple = seconds since the last
// heartbeat. Each is chosen so a correct process on loopback stays
// below it while a crashed one crosses it within a few intervals.
func kindThreshold(kind int, interval time.Duration) core.Level {
	switch kind {
	case kindPhi:
		return 8
	case kindChen:
		return core.Level(interval.Seconds())
	case kindKappa:
		return 3
	case kindBertier:
		return 2
	default:
		return core.Level(3 * interval.Seconds())
	}
}

// workload is one traffic mix. Every workload carries every kind of
// load (beats, /v1/suspicion reads, /v1/metrics scrapes, crashes) so
// that every end-to-end metric is measured on every workload; the
// workloads differ in which of those dominates.
type workload struct {
	name     string
	procs    int
	interval time.Duration
	// frame is the beats per AFB1 frame (the GroupSender shape); 0
	// sends one AFD1 datagram per beat (the Sender shape).
	frame int
	kinds []int
	// queryRate is the open-loop /v1/suspicion rate, per second.
	queryRate float64
	// crashShare is the share of live processes crashed each second.
	crashShare float64
	// grace ends the crash schedule this long before a window closes,
	// so every crash has time to be detected inside its window.
	grace time.Duration
	// targetTD is the autotune detection-time target (-target-td).
	targetTD time.Duration
}

const (
	// scrapeEvery is the /v1/metrics cadence: often enough that a
	// window holds some 40 scrapes for its tail.
	scrapeEvery = 500 * time.Millisecond
	// warmup runs the schedule before the first measured window.
	warmup = 5 * time.Second
)

var workloads = []workload{
	{
		// 5k phi processes at 1 s, one AFD1 datagram per beat, light reads:
		// per-datagram ingest (read, decode, queue, shard and entry lock,
		// Report) dominates.
		name:       "steady-beats",
		procs:      5000,
		interval:   time.Second,
		kinds:      []int{kindPhi},
		queryRate:  200,
		crashShare: 0.004,
		grace:      3 * time.Second,
		targetTD:   3 * time.Second,
	},
	{
		// 20k phi processes at 2 s in 64-beat AFB1 frames plus 500/s
		// suspicion reads and 2/s scrapes: fleet walks, exposition, HTTP and
		// memory dominate.
		name:       "read-fleet",
		procs:      20000,
		interval:   2 * time.Second,
		frame:      64,
		kinds:      []int{kindPhi},
		queryRate:  500,
		crashShare: 0.002,
		grace:      5 * time.Second,
		targetTD:   6 * time.Second,
	},
	{
		// 5k processes over all five detector kinds at 100 ms with 2%/s
		// crashes replaced in place: registry writes, every kind's Report
		// and level, T_D and P_A.
		name:       "crash-churn",
		procs:      5000,
		interval:   100 * time.Millisecond,
		frame:      64,
		kinds:      []int{kindPhi, kindChen, kindKappa, kindBertier, kindSimple},
		queryRate:  200,
		crashShare: 0.02,
		grace:      1500 * time.Millisecond,
		targetTD:   500 * time.Millisecond,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// slotKind is the detector kind of fleet slot i: kinds are dealt out
// round-robin, so each kind gets an even share and every AFB1 frame
// mixes kinds like a real multi-service host would.
func (w workload) slotKind(slot int) int {
	return w.kinds[slot%len(w.kinds)]
}

// slotID names the process occupying slot i after gen replacements; the
// kind prefix is what the benchmark's detector factory dispatches on.
func (w workload) slotID(slot, gen int) string {
	if gen == 0 {
		return fmt.Sprintf("%s-%d", kindNames[w.slotKind(slot)], slot)
	}
	return fmt.Sprintf("%s-%d.%d", kindNames[w.slotKind(slot)], slot, gen)
}

// kindOf recovers the detector kind from a process id.
func kindOf(id string) int {
	for k, name := range kindNames {
		if len(id) > len(name) && id[:len(name)] == name && id[len(name)] == '-' {
			return k
		}
	}
	return -1
}
