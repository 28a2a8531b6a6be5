package service

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"accrual/internal/core"
)

func TestRecorderTickAndHistory(t *testing.T) {
	m, clk := newTestMonitor()
	_ = m.Heartbeat(hb("p", 1, clk.Now()))
	rec := NewRecorder(m, 10)

	for i := 0; i < 5; i++ {
		clk.Advance(time.Second)
		rec.Tick()
	}
	records, ok := rec.History("p")
	if !ok {
		t.Fatal("no history for p")
	}
	if len(records) != 5 {
		t.Fatalf("samples = %d, want 5", len(records))
	}
	// The simple detector's level is seconds since last heartbeat: the
	// history must be 1, 2, 3, 4, 5.
	for i, r := range records {
		if want := core.Level(i + 1); r.Level != want {
			t.Errorf("sample %d level = %v, want %v", i, r.Level, want)
		}
		if i > 0 && !records[i].At.After(records[i-1].At) {
			t.Error("history timestamps not increasing")
		}
	}
	if rec.Ticks() != 5 {
		t.Errorf("Ticks = %d", rec.Ticks())
	}
}

func TestRecorderRingEviction(t *testing.T) {
	m, clk := newTestMonitor()
	_ = m.Heartbeat(hb("p", 1, clk.Now()))
	rec := NewRecorder(m, 3)
	for i := 0; i < 7; i++ {
		clk.Advance(time.Second)
		rec.Tick()
	}
	records, _ := rec.History("p")
	if len(records) != 3 {
		t.Fatalf("samples = %d, want capacity 3", len(records))
	}
	// Oldest evicted: the remaining levels are 5, 6, 7.
	if records[0].Level != 5 || records[2].Level != 7 {
		t.Errorf("ring contents = %v", records)
	}
}

func TestRecorderUnknownProcess(t *testing.T) {
	m, _ := newTestMonitor()
	rec := NewRecorder(m, 4)
	if _, ok := rec.History("ghost"); ok {
		t.Error("unknown process should have no history")
	}
}

func TestRecorderCapacityClamp(t *testing.T) {
	m, clk := newTestMonitor()
	_ = m.Heartbeat(hb("p", 1, clk.Now()))
	rec := NewRecorder(m, 0)
	rec.Tick()
	rec.Tick()
	records, _ := rec.History("p")
	if len(records) != 1 {
		t.Errorf("capacity clamp failed: %d samples", len(records))
	}
}

func TestRecorderRunner(t *testing.T) {
	m, clk := newTestMonitor()
	_ = m.Heartbeat(hb("p", 1, clk.Now()))
	rec := NewRecorder(m, 100)
	rr := StartRecorder(rec, 2*time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for rec.Ticks() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	rr.Stop()
	rr.Stop() // idempotent
	if rec.Ticks() < 3 {
		t.Error("runner did not tick")
	}
}

func TestRecorderTracksNewProcesses(t *testing.T) {
	m, clk := newTestMonitor()
	rec := NewRecorder(m, 8)
	rec.Tick() // nothing registered yet
	_ = m.Heartbeat(hb("late", 1, clk.Now()))
	rec.Tick()
	if _, ok := rec.History("late"); !ok {
		t.Error("newly registered process not sampled")
	}
}

// TestRecorderDropsDepartedProcess pins the recorder's retention: a
// deregistered process keeps its history while it has been absent for
// fewer than capacity ticks, and its ring is dropped at the capacity-th.
// Steady-state ticks, including the absent-process sweep, allocate
// nothing.
func TestRecorderDropsDepartedProcess(t *testing.T) {
	m, clk := newTestMonitor()
	_ = m.Heartbeat(hb("stay", 1, clk.Now()))
	_ = m.Heartbeat(hb("gone", 1, clk.Now()))
	const capacity = 8
	rec := NewRecorder(m, capacity)
	rec.Tick()
	m.Deregister("gone")
	for i := 1; i < capacity; i++ {
		rec.Tick()
	}
	if records, ok := rec.History("gone"); !ok || len(records) != 1 {
		t.Fatalf("history after %d absent ticks = %v, %v; want the 1 sample kept", capacity-1, records, ok)
	}
	for i := 0; i < 2; i++ {
		rec.Tick()
	}
	if _, ok := rec.History("gone"); ok {
		t.Errorf("departed process still has history after %d absent ticks", capacity+1)
	}
	if records, _ := rec.History("stay"); len(records) != capacity {
		t.Errorf("present process has %d samples, want %d", len(records), capacity)
	}
	if raceEnabled {
		return
	}
	rec.Tick() // the scratch buffer has reached its high-water mark
	_ = m.Heartbeat(hb("brief", 1, clk.Now()))
	rec.Tick()
	m.Deregister("brief")
	if allocs := testing.AllocsPerRun(capacity-2, rec.Tick); allocs != 0 {
		t.Errorf("Tick with an absent process: %v allocs/op, want 0", allocs)
	}
}

// TestRecorderWindowAcrossReregistration pins the one way a window of
// ticks differs from a window of samples: a process deregistered for g <
// capacity ticks and registered again keeps its samples from before the
// gap, each with its original tick time; the ticks it missed are absent;
// and samples leave the history once they are capacity ticks old.
func TestRecorderWindowAcrossReregistration(t *testing.T) {
	m, clk := newTestMonitor()
	_ = m.Heartbeat(hb("p", 1, clk.Now()))
	_ = m.Heartbeat(hb("q", 1, clk.Now()))
	const capacity, gap = 6, 2
	rec := NewRecorder(m, capacity)
	var tickTimes []time.Time // indexed by tick - 1
	tick := func() {
		clk.Advance(time.Second)
		tickTimes = append(tickTimes, clk.Now())
		rec.Tick()
	}
	tick() // tick 1
	tick() // tick 2
	_ = m.Heartbeat(hb("late", 1, clk.Now()))
	m.Deregister("p")
	for i := 0; i < gap; i++ {
		tick() // ticks 3, 4: p absent
	}
	_ = m.Heartbeat(hb("p", 1, clk.Now()))
	tick() // tick 5
	tick() // tick 6

	wantTicks := func(ticks ...int) {
		t.Helper()
		records, ok := rec.History("p")
		if !ok {
			t.Fatal("no history for p")
		}
		if len(records) != len(ticks) {
			t.Fatalf("p has %d samples %v, want ticks %v", len(records), records, ticks)
		}
		for i, k := range ticks {
			if !records[i].At.Equal(tickTimes[k-1]) {
				t.Errorf("sample %d at %v, want tick %d's time %v", i, records[i].At, k, tickTimes[k-1])
			}
		}
	}
	wantTicks(1, 2, 5, 6)
	// A process first sampled inside the window has no earlier ticks.
	if late, _ := rec.History("late"); len(late) != 4 || !late[0].At.Equal(tickTimes[2]) {
		t.Errorf("late joiner history = %v, want ticks 3..6", late)
	}
	// Re-registration restarted p's detector at tick 4's time, so its
	// post-gap levels are 1 and 2 again.
	if records, _ := rec.History("p"); records[1].Level != 2 || records[2].Level != 1 {
		t.Errorf("p levels = %v", records)
	}

	tick() // tick 7: tick 1 leaves the window
	tick() // tick 8: tick 2 leaves the window
	wantTicks(5, 6, 7, 8)
	tick() // tick 9: the absent ticks 3 and 4 have left the window
	wantTicks(5, 6, 7, 8, 9)

	// Processes sampled on one tick report the identical time.
	p, _ := rec.History("p") // ticks 5..9; q has 4..9
	q, _ := rec.History("q")
	if len(q) != capacity {
		t.Fatalf("q has %d samples, want %d", len(q), capacity)
	}
	for i := range p {
		if qi := i + len(q) - len(p); p[i].At != q[qi].At {
			t.Errorf("p sample %d at %v, q's sample on the same tick at %v", i, p[i].At, q[qi].At)
		}
	}

	tick() // tick 10
	m.Deregister("p")
	tick() // tick 11: p absent again, in the ring slot tick 5 filled
	_ = m.Heartbeat(hb("p", 1, clk.Now()))
	tick() // tick 12
	wantTicks(7, 8, 9, 10, 12)
}

// TestRecorderBytesPerProcess pins the ring layout: a process's history
// costs its levels (8 bytes a sample) plus a small constant, because
// the tick times are stored once for the whole fleet. A ring of full
// QueryRecords would cost 32 bytes a sample and fail the bound.
func TestRecorderBytesPerProcess(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory distorts heap figures")
	}
	const procs, capacity = 2000, 600 // accruald's default -history
	m, clk := newTestMonitor()
	for i := 0; i < procs; i++ {
		_ = m.Heartbeat(hb(fmt.Sprintf("p%04d", i), 1, clk.Now()))
	}
	before := heapAlloc()
	rec := NewRecorder(m, capacity)
	for i := 0; i < capacity; i++ {
		clk.Advance(time.Second)
		rec.Tick()
	}
	after := heapAlloc()
	runtime.KeepAlive(rec)
	perProc := (int64(after) - int64(before)) / procs
	t.Logf("recorder heap: %d B/process at capacity %d", perProc, capacity)
	if limit := int64(8*capacity + 256); perProc > limit {
		t.Errorf("recorder heap = %d B/process, want at most %d", perProc, limit)
	}
}

func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
