package service

import (
	"math"
	"testing"
	"time"
	"unsafe"

	"accrual/internal/clock"
	"accrual/internal/core"
	"accrual/internal/phi"
)

// stepWall returns t with its wall-clock reading moved by step and its
// monotonic reading left alone — what time.Now returns after an NTP step
// or a VM resume. The standard library cannot build such a value, so it
// is forged through time.Time's layout (wall, ext, loc; ext holds the
// monotonic reading whenever the value carries one).
func stepWall(t time.Time, step time.Duration) time.Time {
	type rawTime struct {
		wall uint64
		ext  int64
		loc  *time.Location
	}
	stepped := t.Add(step) // moves both readings
	(*rawTime)(unsafe.Pointer(&stepped)).ext = (*rawTime)(unsafe.Pointer(&t)).ext
	return stepped
}

// TestClockStepKeepsLevels steps the wall clock by ±1 h between the last
// heartbeat and a query, while the monotonic clock advances 100 ms. The
// detectors measure elapsed time monotonically, so every read path must
// report the unstepped level: a forward step must not suspect the whole
// fleet at once, and a backward step must not zero it.
func TestClockStepKeepsLevels(t *testing.T) {
	base := time.Now()
	if stepWall(base, time.Hour).Sub(base) != 0 {
		t.Fatal("forged instant lost its monotonic reading")
	}
	var now time.Time
	m := NewMonitor(clock.Func(func() time.Time { return now }), func(_ string, st time.Time) core.Detector {
		return phi.New(st)
	})
	ids := []string{"a", "b", "c"}
	now = base
	for seq, gap := range []time.Duration{0, 90, 110, 100} { // ms, jittered
		now = now.Add(gap * time.Millisecond)
		for _, id := range ids {
			if err := m.Heartbeat(core.Heartbeat{From: id, Seq: uint64(seq + 1), Arrived: now}); err != nil {
				t.Fatal(err)
			}
		}
	}
	now = now.Add(110 * time.Millisecond)
	want, err := m.Suspicion("a")
	if err != nil {
		t.Fatal(err)
	}
	if want <= 0 || want > 3 {
		t.Fatalf("unstepped level = %v, want a modest positive φ", want)
	}
	unstepped := now
	for _, step := range []time.Duration{time.Hour, -time.Hour} {
		now = stepWall(unstepped, step)
		for _, id := range ids {
			got, err := m.Suspicion(id)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(float64(got-want)) > 1e-9 {
				t.Errorf("step %v: Suspicion(%s) = %v, want unstepped %v", step, id, got, want)
			}
		}
		n := 0
		m.EachLevel(func(id string, got core.Level) {
			n++
			if math.Abs(float64(got-want)) > 1e-9 {
				t.Errorf("step %v: walk level of %s = %v, want unstepped %v", step, id, got, want)
			}
		})
		if n != len(ids) {
			t.Errorf("step %v: walk visited %d processes, want %d", step, n, len(ids))
		}
	}
}
