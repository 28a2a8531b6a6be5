package main

import (
	"math/rand/v2"
	"slices"
)

// schedule is the open-loop beat plan both processes derive from the
// seed: the fleet is cut into send units (one slot per AFD1 unit, up to
// frame slots per AFB1 unit), each with a fixed phase inside the
// interval, in phase order. Unit u's k-th beat is due at t0 + phase[u] + k·interval,
// whatever the stack is doing.
type schedule struct {
	interval int64   // ns
	units    [][]int // slots per unit, units sorted by phase
	phase    []int64 // ns offset of each unit inside the interval
	unitOf   []int   // slot → unit
}

func newSchedule(w workload, seed int64) *schedule {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x5c4ed))
	per := max(1, w.frame)
	n := (w.procs + per - 1) / per
	// Slots are dealt into units in a seeded order; units are evenly
	// spaced over the interval from a seeded offset, so the offered
	// load is the same at every instant whatever the seed.
	order := rng.Perm(w.procs)
	offset := rng.Int64N(int64(w.interval) / int64(n))
	s := &schedule{interval: int64(w.interval), unitOf: make([]int, w.procs)}
	for u := range n {
		slots := order[u*per : min(w.procs, (u+1)*per)]
		slices.Sort(slots)
		s.units = append(s.units, slots)
		s.phase = append(s.phase, offset+int64(u)*int64(w.interval)/int64(n))
		for _, slot := range slots {
			s.unitOf[slot] = u
		}
	}
	return s
}

// nextDue is the first due time of slot's unit at or after t.
func (s *schedule) nextDue(t0 int64, slot int, t int64) int64 {
	base := t0 + s.phase[s.unitOf[slot]]
	if t <= base {
		return base
	}
	k := (t - base + s.interval - 1) / s.interval
	return base + k*s.interval
}
