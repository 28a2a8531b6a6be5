package service

import (
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
