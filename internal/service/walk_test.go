package service

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"accrual/internal/clock"
	"accrual/internal/core"
)

// registerFleet seeds n processes with a few accepted heartbeats each,
// then advances the clock so every entry has a live published snapshot.
func registerFleet(tb testing.TB, m *Monitor, clk *clock.Manual, n int) {
	tb.Helper()
	for seq := uint64(1); seq <= 3; seq++ {
		now := clk.Advance(100 * time.Millisecond)
		for i := 0; i < n; i++ {
			id := fmt.Sprintf("walk-%05d", i)
			if err := m.Heartbeat(core.Heartbeat{From: id, Seq: seq, Arrived: now}); err != nil {
				tb.Fatalf("heartbeat %q: %v", id, err)
			}
		}
	}
	clk.Advance(time.Second)
}

// TestWalkParallelUnderChurn hammers the lock-free read paths —
// EachLevel, EachInfo and TopK, each on its own goroutine — against
// concurrent heartbeats, deregistrations, retunes and state imports. Run under -race this is the memory-model proof of
// the seqlock publication protocol; without -race it still shakes out
// ordering bugs (torn reads surface as the final consistency check
// failing). The test ends with a frozen-clock snapshot-vs-live sweep so
// churn cannot simply pass by never being observed.
func TestWalkParallelUnderChurn(t *testing.T) {
	clk := clock.NewManual(start)
	m := NewMonitor(clk, simpleFactory, WithShardCount(16))
	const procs = 192
	registerFleet(t, m, clk, procs)

	donor := NewMonitor(clock.NewManual(start), simpleFactory, WithShardCount(16))
	dclk := clock.NewManual(start)
	for seq := uint64(1); seq <= 5; seq++ {
		now := dclk.Advance(250 * time.Millisecond)
		for i := 0; i < procs; i++ {
			if err := donor.Heartbeat(core.Heartbeat{From: fmt.Sprintf("walk-%05d", i), Seq: seq, Arrived: now}); err != nil {
				t.Fatalf("donor heartbeat: %v", err)
			}
		}
	}
	state := donor.ExportState()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	worker := func(fn func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				fn(i)
			}
		}()
	}
	worker(func(i int) { // writer: heartbeats with a moving clock
		now := clk.Advance(time.Millisecond)
		id := fmt.Sprintf("walk-%05d", i%procs)
		_ = m.Heartbeat(core.Heartbeat{From: id, Seq: uint64(100 + i/procs), Arrived: now})
	})
	worker(func(i int) { // churn: deregister (auto-registration revives them)
		m.Deregister(fmt.Sprintf("walk-%05d", (i*31)%procs))
	})
	worker(func(i int) { // retune: republishes every snapshot it touches
		_, _, _ = m.Retune(core.Tuning{WindowSize: 8 + i%32})
	})
	worker(func(i int) { // restore: replaces detector state wholesale
		_, _ = m.ImportState(state)
	})
	worker(func(i int) { m.EachLevel(func(string, core.Level) {}) })
	worker(func(i int) { m.EachInfo(func(ProcessInfo) {}) })
	worker(func(i int) {
		var dst [8]RankedProcess
		_ = m.TopK(8, dst[:0])
	})

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Quiescent now: every surviving entry's snapshot must still agree
	// with its live detector, whatever interleaving it went through.
	compareSnapshotToLive(t, m, clk.Now())
}
