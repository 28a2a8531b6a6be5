package main

import (
	"io"
	"math"
	"runtime"
	"time"

	"accrual/internal/clock"
	"accrual/internal/core"
	"accrual/internal/service"
	"accrual/internal/telemetry"
)

// measure runs fn three times and returns its fewest allocations and
// shortest duration, with nothing else running in the process.
func measure(fn func()) (allocs uint64, d time.Duration) {
	allocs, d = math.MaxUint64, time.Duration(math.MaxInt64)
	for range 3 {
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		start := time.Now()
		fn()
		took := time.Since(start)
		runtime.ReadMemStats(&b)
		allocs = min(allocs, b.Mallocs-a.Mallocs)
		d = min(d, took)
	}
	return allocs, d
}

// quiescedProbe times one call of each production fleet consumer with
// the generator stopped and the periodic consumers halted, and counts
// its allocations per registered process. It also counts the
// allocations of one Monitor.Suspicion call per detector kind: on the
// live registry for kinds the workload runs, otherwise on a probe
// registry of 256 processes built by the same factory.
func quiescedProbe(s *stack, rs *runState, put func(name string, v float64, unit, note string)) {
	n := float64(s.mon.Len())
	var sink core.Level
	var top []service.RankedProcess
	consumers := []struct {
		name string
		fn   func()
	}{
		{"each_level", func() { s.mon.EachLevel(func(_ string, l core.Level) { sink += l }) }},
		{"topk64", func() { top = s.mon.TopK(64, top[:0]) }},
		{"qos_sample", func() { s.hub.QoS().Sample(s.mon) }},
		{"app_poll", func() { s.watchApp.Poll() }},
		{"recorder_tick", func() { s.rec.Tick() }},
		{"write_metrics", func() { _ = s.api.WriteMetrics(io.Discard) }},
		{"encode_round", func() { _, _ = s.fed.EncodeRound() }},
	}
	for _, c := range consumers {
		allocs, d := measure(c.fn)
		put("probe."+c.name+"_allocs_per_proc", float64(allocs)/n, "count", "quiesced")
		put("probe."+c.name+"_ms", float64(d)/1e6, "ms", "quiesced, best of 3")
		if c.name == "each_level" {
			put("service.walk_allocs_per_proc", float64(allocs)/n, "count", "quiesced EachLevel")
		}
	}

	rs.mu.Lock()
	var ids [numKinds][]string
	for _, id := range rs.slotIDs {
		if k := kindOf(id); len(ids[k]) < 1000 && s.mon.Known(id) {
			ids[k] = append(ids[k], id)
		}
	}
	rs.mu.Unlock()
	for k := range numKinds {
		mon := s.mon
		if len(ids[k]) == 0 {
			mon, ids[k] = probeMonitor(rs.w, k)
		}
		allocs, _ := measure(func() {
			for _, id := range ids[k] {
				l, _ := mon.Suspicion(id)
				sink += l
			}
		})
		put(kindNames[k]+".level_allocs", float64(allocs)/float64(len(ids[k])), "count", nOf(len(ids[k])))
	}
	_ = sink
}

// probeMonitor builds a 256-process registry of one kind with the
// stack's factory and options, each process fed three beats.
func probeMonitor(w workload, kind int) (*service.Monitor, []string) {
	profile, _ := service.ParseProfile("default")
	mon := service.NewMonitor(clock.Wall{}, detectorFactory(w.interval, profile, &obs{}),
		service.WithTelemetry(telemetry.NewHub()), service.WithProfile(profile))
	ids := make([]string, 256)
	now := time.Now().Add(-3 * w.interval)
	for i := range ids {
		ids[i] = kindNames[kind] + "-probe" + itoa(i)
		for seq := uint64(1); seq <= 3; seq++ {
			at := now.Add(time.Duration(seq) * w.interval)
			_ = mon.Heartbeat(core.Heartbeat{From: ids[i], Seq: seq, Sent: at, Arrived: at})
		}
	}
	return mon, ids
}
