package service

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"accrual/internal/bertier"
	"accrual/internal/chen"
	"accrual/internal/clock"
	"accrual/internal/core"
	"accrual/internal/kappa"
	"accrual/internal/phi"
	"accrual/internal/simple"
)

// TestSnapshotLevelsMatchLive is the correctness property of the eval
// snapshot plane: for every detector kind, a level evaluated lock-free
// from the published snapshot must agree with the live detector's
// Suspicion() — at the same frozen instant — to within 1e-9. The
// workload is deliberately hostile to stale snapshots: jittered
// arrivals, 10% heartbeat loss (sequence numbers spent on beats that
// never arrive), deregister/re-register churn, and live retunes that
// resize estimation windows mid-stream. Every one of those paths must
// republish the snapshot atomically or the comparison drifts.
func TestSnapshotLevelsMatchLive(t *testing.T) {
	const interval = time.Second
	kinds := []struct {
		name    string
		factory Factory
	}{
		{"simple", func(_ string, st time.Time) core.Detector {
			return simple.New(st)
		}},
		{"chen", func(_ string, st time.Time) core.Detector {
			return chen.New(st, interval)
		}},
		{"phi-normal", func(_ string, st time.Time) core.Detector {
			return phi.New(st, phi.WithModel(phi.ModelNormal))
		}},
		{"phi-exponential", func(_ string, st time.Time) core.Detector {
			return phi.New(st, phi.WithModel(phi.ModelExponential))
		}},
		{"phi-erlang", func(_ string, st time.Time) core.Detector {
			return phi.New(st, phi.WithModel(phi.ModelErlang))
		}},
		{"kappa", func(_ string, st time.Time) core.Detector {
			return kappa.New(st, kappa.PLater{}, kappa.WithFixedInterval(interval))
		}},
		{"bertier", func(_ string, st time.Time) core.Detector {
			return bertier.New(st, interval)
		}},
	}
	for _, k := range kinds {
		k := k
		t.Run(k.name, func(t *testing.T) {
			clk := clock.NewManual(start)
			m := NewMonitor(clk, k.factory, WithShardCount(8))
			rng := rand.New(rand.NewSource(0xACC2))
			const procs = 32
			seq := make([]uint64, procs)
			for step := 1; step <= 600; step++ {
				now := clk.Advance(time.Duration(10+rng.Intn(80)) * time.Millisecond)
				p := rng.Intn(procs)
				seq[p]++
				if rng.Float64() < 0.10 {
					continue // lost beat: sequence number spent, arrival never happens
				}
				id := fmt.Sprintf("proc-%02d", p)
				if err := m.Heartbeat(core.Heartbeat{From: id, Seq: seq[p], Arrived: now}); err != nil {
					t.Fatalf("heartbeat %q: %v", id, err)
				}
				if rng.Float64() < 0.03 {
					victim := rng.Intn(procs)
					if m.Deregister(fmt.Sprintf("proc-%02d", victim)) {
						seq[victim] = 0 // re-registration starts a fresh detector
					}
				}
				if rng.Float64() < 0.02 {
					if _, _, err := m.Retune(core.Tuning{WindowSize: 16 + rng.Intn(48)}); err != nil {
						t.Fatalf("retune: %v", err)
					}
				}
				if step%75 == 0 {
					compareSnapshotToLive(t, m, clk.Now())
				}
			}
			// Jump far past the last arrival so the comparison also covers
			// deep-silence evaluation (large elapsed, saturated κ grid).
			clk.Advance(7 * interval)
			compareSnapshotToLive(t, m, clk.Now())
		})
	}
}

// compareSnapshotToLive walks the fleet through the snapshot read path
// and cross-checks every level against the live detector evaluated
// under the entry lock at the same instant. The manual clock is frozen
// for the duration, so any disagreement is a publication bug — a stale
// or torn snapshot — not clock skew.
func compareSnapshotToLive(t *testing.T, m *Monitor, now time.Time) {
	t.Helper()
	levels := make(map[string]core.Level)
	m.EachLevel(func(id string, lvl core.Level) { levels[id] = lvl })
	checked := 0
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.RLock()
		for id := range sh.procs {
			e, _ := sh.get(id)
			e.mu.Lock()
			live := e.det.Suspicion(now)
			e.mu.Unlock()
			lvl, ok := levels[id]
			if !ok {
				t.Fatalf("EachLevel missed process %q", id)
			}
			if diff := math.Abs(float64(lvl) - float64(live)); diff > 1e-9 {
				t.Fatalf("EachLevel level for %q = %v, live Suspicion = %v (diff %g)",
					id, lvl, live, diff)
			}
			checked++
		}
		sh.mu.RUnlock()
	}
	if checked == 0 {
		t.Fatal("no registered processes to compare")
	}
	if len(levels) != checked {
		t.Fatalf("walk visited %d/%d processes", len(levels), checked)
	}
}
