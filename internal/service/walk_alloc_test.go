package service_test

import (
	"fmt"
	"io"
	"sync/atomic"
	"testing"
	"time"

	"accrual/internal/bertier"
	"accrual/internal/chen"
	"accrual/internal/clock"
	"accrual/internal/core"
	"accrual/internal/kappa"
	"accrual/internal/phi"
	"accrual/internal/service"
	"accrual/internal/simple"
	"accrual/internal/telemetry"
	"accrual/internal/transport"
)

// TestWalkSteadyStateZeroAlloc gates the snapshot read paths at zero
// allocations per full-fleet pass, for every detector kind: the whole
// point of the eval plane is that readers touch only slab arrays and
// atomics, never the heap. φ-Erlang runs at the 256 shape cap, its most
// expensive evaluation.
func TestWalkSteadyStateZeroAlloc(t *testing.T) {
	if service.RaceEnabled {
		t.Skip("allocation budgets are meaningless under the race detector")
	}
	const interval = 100 * time.Millisecond
	kinds := []struct {
		name    string
		factory service.Factory
		kind    core.EvalKind
	}{
		{"simple", func(_ string, st time.Time) core.Detector {
			return simple.New(st)
		}, core.EvalElapsed},
		{"chen", func(_ string, st time.Time) core.Detector {
			return chen.New(st, interval)
		}, core.EvalLateness},
		{"kappa", func(_ string, st time.Time) core.Detector {
			return kappa.New(st, kappa.PLater{}, kappa.WithFixedInterval(interval))
		}, core.EvalAuxKind},
		{"bertier", func(_ string, st time.Time) core.Detector {
			return bertier.New(st, interval)
		}, core.EvalLatenessMargin},
		{"phi-normal", func(_ string, st time.Time) core.Detector {
			return phi.New(st)
		}, core.EvalPhiNormal},
		{"phi-exponential", func(_ string, st time.Time) core.Detector {
			return phi.New(st, phi.WithModel(phi.ModelExponential))
		}, core.EvalPhiExponential},
		{"phi-erlang", func(_ string, st time.Time) core.Detector {
			// Regular beats drive the moment fit to the shape cap.
			return phi.New(st, phi.WithModel(phi.ModelErlang))
		}, core.EvalPhiErlang},
	}
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			start := time.Date(2005, 3, 22, 0, 0, 0, 0, time.UTC)
			clk := clock.NewManual(start)
			hub := telemetry.NewHub()
			m := service.NewMonitor(clk, k.factory, service.WithShardCount(8), service.WithTelemetry(hub))
			const procs = 2048
			for seq := uint64(1); seq <= 3; seq++ {
				now := clk.Advance(interval)
				for i := 0; i < procs; i++ {
					id := fmt.Sprintf("walk-%05d", i)
					if err := m.Heartbeat(core.Heartbeat{From: id, Seq: seq, Arrived: now}); err != nil {
						t.Fatalf("heartbeat %q: %v", id, err)
					}
				}
			}
			clk.Advance(time.Second)
			// A probe fed the fleet's beat pattern shows what every entry
			// publishes: a fitted snapshot of the kind under test.
			probe := k.factory("probe", start)
			for seq := uint64(1); seq <= 3; seq++ {
				probe.Report(core.Heartbeat{From: "probe", Seq: seq, Arrived: start.Add(time.Duration(seq) * interval)})
			}
			snap := probe.(core.EvalSnapshotter).EvalSnapshot()
			if snap.Kind != k.kind || (k.kind == core.EvalPhiErlang && snap.P1 != 256) {
				t.Fatalf("fleet detector publishes kind %v (P1 %v), want %v", snap.Kind, snap.P1, k.kind)
			}
			hub.QoS().Sample(m)
			api := transport.NewAPI(m, transport.WithAPITelemetry(hub))

			var sink atomic.Uint64
			levelFn := func(id string, lvl core.Level) { sink.Add(uint64(len(id))) }
			infoFn := func(info service.ProcessInfo) { sink.Add(uint64(len(info.ID))) }
			dst := make([]service.RankedProcess, 0, 16)
			page := func() {
				if _, err := api.WriteMetricsPage(io.Discard, 0, procs/8); err != nil {
					t.Fatal(err)
				}
			}
			// Warm up: size the TopK scratch and the encoder pool outside
			// the measured region.
			dst = m.TopK(16, dst)
			page()

			cases := []struct {
				name string
				run  func()
			}{
				{"EachLevel", func() { m.EachLevel(levelFn) }},
				{"EachInfo", func() { m.EachInfo(infoFn) }},
				{"TopK", func() { dst = m.TopK(16, dst[:0]) }},
				{"WriteMetricsPage", page},
			}
			for _, c := range cases {
				if allocs := testing.AllocsPerRun(20, c.run); allocs != 0 {
					t.Errorf("%s: %v allocs per pass, want 0", c.name, allocs)
				}
			}
			_ = sink.Load()
		})
	}
}
