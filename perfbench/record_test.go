package main

import (
	"math"
	"testing"
	"time"
)

func TestHistQuantileWithinBucket(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100000; v++ {
		h.add(v * 1000) // 1 µs .. 100 ms, uniform
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		want := q * 100000 * 1000
		if got := h.quantile(q); math.Abs(got-want)/want > 0.04 {
			t.Errorf("q%.2f = %.0f, want %.0f ± 4%%", q, got, want)
		}
	}
	var empty hist
	if !math.IsNaN(empty.quantile(0.5)) {
		t.Error("empty histogram quantile is not NaN")
	}
}

func TestHistIndexBounds(t *testing.T) {
	for _, v := range []int64{0, 1, 63, 64, 65, 1000, 1 << 20, 1<<40 + 12345} {
		lo, hi := histBounds(histIndex(v))
		if float64(v) < lo || float64(v) >= hi {
			t.Errorf("value %d outside its bucket [%.0f, %.0f)", v, lo, hi)
		}
	}
}

func TestSampleTail(t *testing.T) {
	var s sample
	for i := 1; i <= 40; i++ {
		s = append(s, float64(i))
	}
	pct, v := s.tail()
	if pct != 75 || v != 30 {
		t.Errorf("tail of 1..40 = p%d %v, want p75 30 (ten samples beyond)", pct, v)
	}
	if _, v := s[:10].tail(); !math.IsNaN(v) {
		t.Errorf("tail of 10 samples = %v, want NaN", v)
	}
}

func TestSubTailSkipsEmptyParts(t *testing.T) {
	// Values only in the first half of [0, 10): the empty parts must not
	// pull the median.
	var at []int64
	var vals sample
	for i := 0; i < 500; i++ {
		at = append(at, int64(i%5))
		vals = append(vals, 7)
	}
	got, least := subTail(at, vals, 0, 10, 0.99)
	if got != 7 || least != 100 {
		t.Errorf("subTail = %v (smallest part %d), want 7 (100)", got, least)
	}
}

func TestScheduleNextDueAndCoverage(t *testing.T) {
	for _, w := range workloads {
		s := newSchedule(w, 7)
		seen := make([]bool, w.procs)
		for u, slots := range s.units {
			if u > 0 && s.phase[u] <= s.phase[u-1] {
				t.Fatalf("%s: phases not increasing at unit %d", w.name, u)
			}
			for _, slot := range slots {
				if seen[slot] {
					t.Fatalf("%s: slot %d in two units", w.name, slot)
				}
				seen[slot] = true
			}
		}
		for slot, ok := range seen {
			if !ok {
				t.Fatalf("%s: slot %d in no unit", w.name, slot)
			}
		}
		const t0 = int64(1e18)
		slot := w.procs / 2
		base := t0 + s.phase[s.unitOf[slot]]
		for _, at := range []int64{t0, base, base + 1, base + 3*s.interval - 1} {
			due := s.nextDue(t0, slot, at)
			if due < at || due-at >= s.interval || (due-base)%s.interval != 0 {
				t.Errorf("%s: nextDue(%d) = %d, base %d", w.name, at, due, base)
			}
		}
	}
}

func TestSlotIDKind(t *testing.T) {
	w, err := findWorkload("crash-churn")
	if err != nil {
		t.Fatal(err)
	}
	for slot := 0; slot < 10; slot++ {
		for gen := 0; gen < 2; gen++ {
			id := w.slotID(slot, gen)
			if kindOf(id) != w.slotKind(slot) {
				t.Errorf("kindOf(%q) = %d, want %d", id, kindOf(id), w.slotKind(slot))
			}
		}
	}
	if kindOf("phil-1") != -1 {
		t.Error("kindOf accepted an id without the kind's dash")
	}
}

func TestKindThresholdsPositive(t *testing.T) {
	for k := range numKinds {
		if kindThreshold(k, 100*time.Millisecond) <= 0 {
			t.Errorf("%s threshold not positive", kindNames[k])
		}
	}
}
