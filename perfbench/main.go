// Command perfbench is the repository's end-to-end benchmark: it hosts
// accruald's default stack in-process, drives it over loopback from a
// separate generator process on a seeded open-loop schedule, checks the
// stack's outputs, and prints every metric by name with its unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": N, "metrics": {...}}
//
// Usage (from the repository root; see README.md):
//
//	perfbench --workload steady-beats|read-fleet|crash-churn --seed N --seconds S --trace 0|1
//
// With --trace 0 the metrics are the end-to-end ones, measured
// untraced. With --trace 1 the same stack runs an untraced window and
// then a traced one, and the metrics are the per-layer ones.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"accrual/internal/telemetry"
)

// setupRounds is how many times a run builds and registers the stack;
// setup_s is their median and the last one is measured.
const setupRounds = 3

// runLimit bounds one run; past it the benchmark gives up.
const runLimit = 170 * time.Second

func main() {
	if len(os.Args) > 1 && os.Args[1] == "gen" {
		fs := flag.NewFlagSet("perfbench gen", flag.ExitOnError)
		name := fs.String("workload", "", "workload name")
		seed := fs.Int64("seed", 1, "schedule seed")
		_ = fs.Parse(os.Args[2:])
		w, err := findWorkload(*name)
		if err == nil {
			err = runGen(w, *seed)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench gen:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(benchMain(os.Args[1:]))
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: steady-beats, read-fleet or crash-churn")
	seed := fs.Int64("seed", 1, "seed of the beat schedule, query ids and crash schedule")
	seconds := fs.Int("seconds", 10, "length of one measured window")
	trace := fs.Int("trace", 0, "1 runs an untraced and a traced window and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload steady-beats|read-fleet|crash-churn, --seconds ≥ 1, --trace 0|1")
		return 2
	}
	var running atomic.Pointer[genProc]
	time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", runLimit)
		if g := running.Load(); g != nil {
			g.kill()
		}
		os.Exit(3)
	})
	rep, err := runBench(w, *seed, *seconds, *trace == 1, &running)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := rep.print(*trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// cpuMark is the process's CPU time at a wall-clock instant.
type cpuMark struct {
	wall int64
	cpu  float64 // user + system seconds of this process
}

func cpuNow() cpuMark {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return cpuMark{wall: time.Now().UnixNano(), cpu: float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9}
}

// subCores is each sub-window's CPU cores.
func subCores(marks [subWindows + 1]cpuMark) sample {
	var c sample
	for k := 1; k <= subWindows; k++ {
		c = append(c, (marks[k].cpu-marks[k-1].cpu)/(float64(marks[k].wall-marks[k-1].wall)/1e9))
	}
	return c
}

// procSnap is the process and stack state at a window boundary.
type procSnap struct {
	cpu        cpuMark
	numGC      uint32
	pauseNs    uint64
	totalAlloc uint64
	reads      uint64 // read syscalls of the listener's sockets
	walks      telemetry.WalkStats
	regs       uint64
	sTrans     uint64
}

func takeSnap(s *stack) procSnap {
	c := cpuNow()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p := procSnap{
		cpu:        c,
		numGC:      ms.NumGC,
		pauseNs:    ms.PauseTotalNs,
		totalAlloc: ms.TotalAlloc,
		walks:      s.hub.Walks.Snapshot(),
		regs:       s.hub.Counters.Totals().Registrations,
		sTrans:     s.falseSuspicions(),
	}
	s.hub.Transport.EachSocket(func(_ string, _, batches uint64) { p.reads += batches })
	return p
}

// register sends the registration round (the schedule round starting
// at the returned instant) and resends to whichever slots did not
// register, until all have.
func register(s *stack, gp *genProc, w workload) (int64, error) {
	addr := s.udpAddr()
	at := time.Now().Add(50 * time.Millisecond).UnixNano()
	gp.send(fmt.Sprintf("reg %s %d", addr, at))
	for round := 0; ; round++ {
		if _, err := gp.await("reg", 2*w.interval+30*time.Second); err != nil {
			return 0, err
		}
		settle(s, func() bool { return s.mon.Len() == w.procs })
		if s.mon.Len() == w.procs {
			return at, nil
		}
		if round == 8 {
			return 0, fmt.Errorf("set-up: %d of %d processes registered after %d rounds", s.mon.Len(), w.procs, round+1)
		}
		missing := []string{"resend", addr}
		for i := range w.procs {
			if !s.mon.Known(w.slotID(i, 0)) {
				missing = append(missing, itoa(i))
			}
		}
		gp.send(strings.Join(missing, " "))
	}
}

// waitWarm waits until every φ has published a fitted snapshot: on the
// measured stack, whose schedule keeps beating, for up to two intervals
// plus two seconds; on a throwaway set-up until ingest goes quiet.
func waitWarm(s *stack, w workload, o *obs, final bool) {
	fitted := func() bool { return o.phiUnfitted.Load() == 0 }
	if !final {
		settle(s, fitted)
		return
	}
	deadline := time.Now().Add(2*w.interval + 2*time.Second)
	for time.Now().Before(deadline) && !fitted() {
		time.Sleep(2 * time.Millisecond)
	}
}

// settle waits until done reports true, or until the listener has made
// no progress for 100 ms (at most 5 s).
func settle(s *stack, done func() bool) {
	progress := func() uint64 {
		st := s.ln.Stats()
		return st.PacketsReceived + st.PacketsShed + st.Rejected + st.Delivered
	}
	last, quiet := progress(), 0
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		if done() {
			return
		}
		time.Sleep(2 * time.Millisecond)
		if cur := progress(); cur != last {
			last, quiet = cur, 0
		} else if quiet++; quiet >= 50 {
			return
		}
	}
}

// runBench runs one workload; running holds the generator while it
// runs, for the run-time limit to stop it.
func runBench(w workload, seed int64, seconds int, traced bool, running *atomic.Pointer[genProc]) (*report, error) {
	rep := newReport(w, seed)
	o := &obs{}
	gp, err := startGen(w, seed)
	if err != nil {
		return nil, err
	}
	running.Store(gp)
	defer gp.close()
	rep.env = envBlock(w, seed, gp.hello.GOMAXPROCS, gp.hello.Sink)
	sched := newSchedule(w, seed)
	rs := newRunState(w, sched, seed)
	rs.gen = gp

	var s *stack
	defer func() {
		if s != nil {
			s.close()
		}
	}()
	var setups sample
	var baseline uint64
	var unfitted int64
	span := int64(seconds) * int64(time.Second)
	for i := range setupRounds {
		if s != nil {
			s.close()
			s = nil
		}
		o.resetRun()
		runtime.GC()
		final := i == setupRounds-1
		if final {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			baseline = ms.HeapAlloc
		}
		start := time.Now()
		s, err = buildStack(w, o, gp.hello.Sink, rs.live)
		if err != nil {
			return nil, err
		}
		regAt, err := register(s, gp, w)
		if err != nil {
			return nil, err
		}
		warmAt := regAt + int64(w.interval)
		if !final {
			gp.send(fmt.Sprintf("warm %s %d", s.udpAddr(), warmAt))
			if _, err := gp.await("reg", 2*w.interval+30*time.Second); err != nil {
				return nil, err
			}
		} else {
			// The measured stack's warm round is the open-loop
			// schedule's first round: the schedule starts at t0 =
			// warmAt, then a warm-up, then one measured window
			// (untraced) and, traced, a second one after a one-second
			// gap that absorbs the forced GC of the heap reading.
			rs.s = s
			rs.t0 = warmAt
			w1s := rs.t0 + int64(warmup)
			rs.windows = [][2]int64{{w1s, w1s + span}}
			if traced {
				w2s := w1s + span + int64(time.Second)
				rs.windows = append(rs.windows, [2]int64{w2s, w2s + span})
				rs.traced = 1
			}
			o.setWindows(rs.windows)
			rs.start()
			run := fmt.Sprintf("run %s %s %d", s.udpAddr(), s.httpAddr, rs.t0)
			for _, win := range rs.windows {
				run += fmt.Sprintf(" %d %d", win[0], win[1])
			}
			gp.send(run)
		}
		waitWarm(s, w, o, final)
		setups = append(setups, time.Since(start).Seconds())
		unfitted = o.phiUnfitted.Load()
	}
	rep.check("setup_complete", s.mon.Len() == w.procs && unfitted == 0,
		fmt.Sprintf("%d of %d registered, %d φ snapshots unfitted after set-up", s.mon.Len(), w.procs, unfitted))

	snaps := make([]procSnap, 2*len(rs.windows))
	subCPU := make([][subWindows + 1]cpuMark, len(rs.windows))
	var heapPerProc float64
	for i, win := range rs.windows {
		if i == rs.traced {
			perSec := float64(w.procs) / w.interval.Seconds()
			o.spans = make([]beatSpan, int(perSec*float64(seconds)*1.1))
		}
		// Collect before the window, so a GC cycle the warm-up's
		// allocations (history rings, App views) made due does not fall
		// into one run's window and not another's.
		sleepUntil(win[0] - int64(500*time.Millisecond))
		runtime.GC()
		sleepUntil(win[0])
		if i == rs.traced {
			o.tracing.Store(true)
		}
		snaps[2*i] = takeSnap(s)
		for k := 1; k <= subWindows; k++ {
			sleepUntil(win[0] + (win[1]-win[0])*int64(k)/subWindows)
			subCPU[i][k] = cpuNow()
		}
		subCPU[i][0] = snaps[2*i].cpu
		snaps[2*i+1] = takeSnap(s)
		if i == 0 {
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			heapPerProc = (float64(ms.HeapAlloc) - float64(baseline)) / float64(s.mon.Len())
		}
	}
	sleepUntil(rs.end() + int64(50*time.Millisecond))
	gp.send("stop")
	done, err := gp.await("done", 60*time.Second)
	if err != nil {
		return nil, err
	}
	settle(s, func() bool {
		st := s.ln.Stats()
		return st.Delivered+st.Rejected+st.PacketsShed >= done.Beats
	})
	o.tracing.Store(false)
	rs.halt()
	rs.finish()
	stats := s.ln.Stats()

	// Correctness checks.
	reports := o.reports.Load()
	kernelDrops := int64(done.Beats) - int64(reports) - int64(stats.PacketsShed) - int64(stats.Rejected)
	dgramDrops := int64(done.Dgrams) - int64(stats.PacketsReceived)
	decodeErrs := stats.PacketsShort + stats.PacketsBadMagic + stats.PacketsBadVersion + stats.PacketsMalformed
	reconciled := kernelDrops >= 0 && dgramDrops >= 0 && decodeErrs == 0 &&
		kernelDrops >= dgramDrops*int64(done.MinPer) && kernelDrops <= dgramDrops*int64(done.MaxPer)
	rep.check("beats_reconcile", reconciled, fmt.Sprintf(
		"sent %d = visible %d + kernel drops %d (%d datagrams) + shed %d + rejected %d; %d undecodable",
		done.Beats, reports, kernelDrops, dgramDrops, stats.PacketsShed, stats.Rejected, decodeErrs))
	ingested := s.hub.Counters.Totals().HeartbeatsIngested
	rep.check("hub_counts_reports", ingested == reports,
		fmt.Sprintf("hub heartbeats %d, wrapped Report calls %d", ingested, reports))
	queryFail, undetected, crashes := 0, 0, 0
	for i := range rs.windows {
		queryFail += done.Windows[i].QueryFail
		undetected += rs.stats[i].undetected
		crashes += rs.stats[i].crashes
	}
	rep.check("suspicion_replies", queryFail == 0, fmt.Sprintf("%d replies not a 200 with a finite level", queryFail))
	gw0 := done.Windows[0]
	rep.check("scrape_parses", gw0.ScrapeParsed > 0 && gw0.ParseErr == "",
		fmt.Sprintf("first scrape: %d samples %s", gw0.ScrapeParsed, gw0.ParseErr))
	rep.check("accruement", undetected == 0, fmt.Sprintf("%d of %d crashes undetected within their window", undetected, crashes))
	rep.check("registry_matches", registryMatches(rs), fmt.Sprintf("%d registered", s.mon.Len()))

	// Attempts and failures over every measured window.
	for i := range rs.windows {
		gw, ws := done.Windows[i], rs.stats[i]
		visible := o.win[i].visible.Load()
		lost := uint64(0)
		if gw.Beats > visible {
			lost = gw.Beats - visible
		}
		rep.attempted += gw.Beats + uint64(len(gw.Queries)+gw.QueryFail+len(gw.Scrapes)+gw.ScrapeFail+ws.crashes)
		rep.failed += lost + uint64(gw.QueryFail+gw.ScrapeFail+ws.undetected)
	}

	e2e(rep, rs, o, done, subCPU[0], snaps[1].numGC-snaps[0].numGC, setups, heapPerProc)
	if traced {
		quiescedProbe(s, rs, rep.layer.put)
		perLayer(rep, rs, o, s, done, snaps, subCPU, stats, kernelDrops)
		if err := writeTraces(w, seed, o, rs); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// registryMatches checks that exactly the slots' current processes are
// registered: no crashed process left behind, no ghost re-registered.
func registryMatches(rs *runState) bool {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	known := 0
	for _, id := range rs.slotIDs {
		if rs.s.mon.Known(id) {
			known++
		}
	}
	return known == rs.s.mon.Len() && known >= rs.w.procs-len(rs.revived)
}

func ms(ns float64) float64 { return ns / 1e6 }
func us(ns float64) float64 { return ns / 1e3 }

func nOf(n int) string { return fmt.Sprintf("n=%d", n) }

// e2e fills the end-to-end metrics from the first (untraced) window.
func e2e(rep *report, rs *runState, o *obs, done genMsg, cpu [subWindows + 1]cpuMark, gcs uint32, setups sample, heapPerProc float64) {
	gw, ws := done.Windows[0], rs.stats[0]
	m := rep.e2e
	visN := nOf(int(o.win[0].vis.count()))
	m.put("setup_s", setups.quantile(0.5), "s", fmt.Sprintf("median of %d set-ups %v", len(setups), []float64(setups)))
	win := rs.windows[0]
	subs := fmt.Sprintf("median over %d sub-windows", subWindows)
	m.put("beat_visible_p50_us", us(o.win[0].subTail(0.5)), "us", visN+", "+subs)
	tails := rep.tails
	tails.put("untraced.beat_visible_p99_us", us(o.win[0].subTail(0.99)), "us", visN+", "+subs)
	cores := subCores(cpu)
	m.put("cpu_cores", cores.quantile(0.5), "cores", fmt.Sprintf("over %.1f s, %s %.3f", float64(cpu[subWindows].wall-cpu[0].wall)/1e9, subs, []float64(cores)))
	m.put("heap_bytes_per_proc", heapPerProc, "B", nOf(rs.w.procs))
	q := sample(gw.Queries)
	qMid, _ := subTail(gw.QueryDue, q, win[0], win[1], 0.5)
	m.put("query_p50_us", us(qMid), "us", nOf(len(q))+", "+subs)
	qTail, qLeast := subTail(gw.QueryDue, q, win[0], win[1], 0.99)
	tails.put("untraced.query_p99_us", us(qTail), "us", fmt.Sprintf("n=%d, %s of ≥%d", len(q), subs, qLeast))
	sc := sample(gw.Scrapes)
	tails.put("untraced.scrape_p50_ms", ms(sc.quantile(0.5)), "ms", nOf(len(sc)))
	pct, tail := sc.tail()
	tails.put("untraced.scrape_tail_ms", ms(tail), "ms", fmt.Sprintf("p%d, n=%d", pct, len(sc)))
	// Kinds detect at very different speeds, so a pooled median would
	// jump between kinds' clusters; each kind's median counts equally.
	var det sample
	var detAt []int64
	var kindMedians float64
	for _, k := range rs.w.kinds {
		det = append(det, ws.detectMs[k]...)
		detAt = append(detAt, ws.detectAt[k]...)
		kindMedians += ws.detectMs[k].quantile(0.5)
	}
	m.put("detect_p50_ms", kindMedians/float64(len(rs.w.kinds)), "ms", fmt.Sprintf("n=%d, mean of %d kinds' medians", len(det), len(rs.w.kinds)))
	dTail, dLeast := subTail(detAt, det, win[0], win[1]-int64(rs.w.grace), 0.99)
	tails.put("untraced.detect_p99_ms", dTail, "ms", fmt.Sprintf("n=%d, %s of ≥%d", len(det), subs, dLeast))
	rep.extra.put("untraced.gc_cycles", float64(gcs), "count", "untraced window")
	m.put("query_accuracy", ws.trusted/ws.liveChecks, "ratio", fmt.Sprintf("%d polls over %.0f live process checks", ws.polls, ws.liveChecks))

	rep.extra.put("gen.untraced_late_us_p99", us(gw.LateP99), "us", fmt.Sprintf("max %.0f us", us(float64(gw.LateMax))))
}

// perLayer fills the per-layer metrics from the traced window (index
// 1) and the trace reconciliation against the untraced window.
func perLayer(rep *report, rs *runState, o *obs, s *stack, done genMsg, snaps []procSnap, subCPU [][subWindows + 1]cpuMark, stats telemetry.TransportStats, kernelDrops int64) {
	m := rep.layer
	a, b := snaps[2], snaps[3]
	gw, ws := done.Windows[1], rs.stats[1]
	n := min(int(o.spanN.Load()), len(o.spans))
	spans := o.spans[:n]
	var toRead, toReport, inReport sample
	for _, sp := range spans {
		toRead = append(toRead, float64(sp.arrived-sp.due))
		toReport = append(toReport, float64(sp.entry-sp.arrived))
		inReport = append(inReport, float64(sp.exit-sp.entry))
	}
	spanN := nOf(n)
	m.put("transport.sent_to_read_us_p50", us(toRead.quantile(0.5)), "us", spanN)
	m.put("transport.sent_to_read_us_p99", us(toRead.quantile(0.99)), "us", spanN)
	m.put("transport.read_to_report_us_p50", us(toReport.quantile(0.5)), "us", spanN)
	m.put("transport.read_to_report_us_p99", us(toReport.quantile(0.99)), "us", spanN)
	m.put("transport.beats_per_read", float64(o.win[1].visible.Load())/float64(max(1, b.reads-a.reads)), "count",
		fmt.Sprintf("%d reads", b.reads-a.reads))
	m.put("transport.kernel_drops", float64(kernelDrops), "count", "beats, whole run")
	m.put("transport.shed", float64(stats.PacketsShed), "count", "beats, whole run")
	m.put("transport.queue_high_water", float64(stats.QueueHighWater), "count", "whole run")
	h := s.handler
	h.mu.Lock()
	m.put("transport.suspicion_handler_us_p50", us(h.suspicionNs.quantile(0.5)), "us", nOf(len(h.suspicionNs)))
	m.put("transport.suspicion_handler_us_p99", us(h.suspicionNs.quantile(0.99)), "us", nOf(len(h.suspicionNs)))
	m.put("transport.metrics_handler_ms_p50", ms(h.metricsNs.quantile(0.5)), "ms", nOf(len(h.metricsNs)))
	m.put("transport.metrics_bytes", h.metricsBytes.quantile(0.5), "B", nOf(len(h.metricsBytes)))
	h.mu.Unlock()

	for _, k := range rs.w.kinds {
		name := kindNames[k]
		out := rep.extra
		if k == kindPhi {
			out = m
		}
		rn := nOf(int(o.reportNs[k].count()))
		out.put(name+".report_ns_p50", o.reportNs[k].quantile(0.5), "ns", rn)
		out.put(name+".report_ns_p99", o.reportNs[k].quantile(0.99), "ns", rn)
		out.put(name+".snapshot_ns_p50", o.snapNs[k].quantile(0.5), "ns", nOf(int(o.snapNs[k].count())))
		out.put(name+".detect_ms_p50", ws.detectMs[k].quantile(0.5), "ms", nOf(len(ws.detectMs[k])))
	}

	call := func(name string) (float64, string) {
		c := ws.calls[name]
		return ms(c.quantile(0.5)), nOf(len(c))
	}
	put := func(metric, consumer string) {
		v, note := call(consumer)
		m.put(metric, v, "ms", note)
	}
	put("service.app_poll_ms_p50", "app.poll")
	put("service.recorder_tick_ms_p50", "recorder.tick")
	m.put("service.walk_runs", float64(b.walks.Runs-a.walks.Runs), "count", "traced window")
	m.put("service.walk_coalesced", float64(b.walks.Coalesced-a.walks.Coalesced), "count", "traced window")
	m.put("service.deregister_us_p50", us(ws.deregNs.quantile(0.5)), "us", nOf(len(ws.deregNs)))
	m.put("service.registrations", float64(b.regs-a.regs), "count", "traced window")
	m.put("service.false_suspicions", float64(b.sTrans-a.sTrans), "count", "traced window")
	for _, k := range rs.w.kinds {
		rep.extra.put(kindNames[k]+".false_suspicions", float64(s.sTrans[k].Load()), "count", "whole run")
	}
	rep.extra.put("watcher.transitions", float64(s.watchTrans.Load()), "count", "Algorithm-1 App, whole run")
	put("telemetry.qos_sample_ms_p50", "qos.sample")
	put("federation.round_ms_p50", "federation.round")
	m.put("federation.frame_bytes", float64(done.SinkBytes)/float64(max(1, done.SinkFrames)), "B", nOf(int(done.SinkFrames)))
	var rounds sample
	rs.mu.Lock()
	for _, st := range rs.stats {
		rounds = append(rounds, st.calls["autotune.round"]...)
	}
	rs.mu.Unlock()
	m.put("autotune.round_ms", ms(rounds.quantile(0.5)), "ms", nOf(len(rounds))+", whole run")
	rs.mu.Lock()
	m.put("autotune.retunes", float64(rs.retunes), "count", "whole run")
	rs.mu.Unlock()
	secs := float64(b.cpu.wall-a.cpu.wall) / 1e9
	m.put("process.gc_cycles", float64(b.numGC-a.numGC), "count", "traced window")
	m.put("process.gc_pause_ms", ms(float64(b.pauseNs-a.pauseNs)), "ms", "traced window")
	m.put("process.alloc_bytes_per_s", float64(b.totalAlloc-a.totalAlloc)/secs, "B/s", "traced window")
	m.put("gen.late_us_p99", us(gw.LateP99), "us", fmt.Sprintf("max %.0f us", us(float64(gw.LateMax))))
	m.put("gen.sent", float64(gw.Beats), "count", "beats due in the traced window")

	// Reconciliation: the three span medians against the same window's
	// visibility median, and traced minus untraced.
	visTraced := us(o.win[1].subTail(0.5))
	sum := us(toRead.quantile(0.5) + toReport.quantile(0.5) + inReport.quantile(0.5))
	m.put("trace.span_sum_p50_us", sum, "us", "sent_to_read + read_to_report + Report medians")
	m.put("trace.visible_p50_us", visTraced, "us", nOf(int(o.win[1].vis.count())))
	m.put("trace.overhead_visible_p50_us", visTraced-us(o.win[0].subTail(0.5)), "us", "traced − untraced")
	m.put("trace.overhead_cpu_cores", subCores(subCPU[1]).quantile(0.5)-subCores(subCPU[0]).quantile(0.5), "cores", "traced − untraced")
	m.put("failed_ratio", float64(rep.failed)/float64(rep.attempted), "ratio", fmt.Sprintf("%d of %d", rep.failed, rep.attempted))
}

// maxWrittenSpans caps the beat spans written per run (an even stride
// through them); the per-layer metrics use every span.
const maxWrittenSpans = 200000

// writeTraces writes the traced window's spans, kept in memory during
// the run, as CSV under .bench_build/traces.
func writeTraces(w workload, seed int64, o *obs, rs *runState) error {
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", w.name, seed))
	var sb strings.Builder
	sb.WriteString("due_ns,arrived_ns,report_entry_ns,report_exit_ns\n")
	spans := o.spans[:min(int(o.spanN.Load()), len(o.spans))]
	stride := max(1, len(spans)/maxWrittenSpans)
	for i := 0; i < len(spans); i += stride {
		sp := spans[i]
		fmt.Fprintf(&sb, "%d,%d,%d,%d\n", sp.due, sp.arrived, sp.entry, sp.exit)
	}
	if err := os.WriteFile(base+"-beats.csv", []byte(sb.String()), 0o644); err != nil {
		return err
	}
	sb.Reset()
	sb.WriteString("name,start_ns,end_ns\n")
	rs.mu.Lock()
	for _, c := range rs.spans {
		fmt.Fprintf(&sb, "%s,%d,%d\n", c.name, c.start, c.end)
	}
	rs.mu.Unlock()
	return os.WriteFile(base+"-calls.csv", []byte(sb.String()), 0o644)
}

// metricSet is an ordered set of named measurements.
type metricSet struct {
	names []string
	vals  map[string]metric
	notes map[string]string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newMetricSet() *metricSet {
	return &metricSet{vals: make(map[string]metric), notes: make(map[string]string)}
}

func (m *metricSet) put(name string, v float64, unit, note string) {
	if _, ok := m.vals[name]; !ok {
		m.names = append(m.names, name)
	}
	m.vals[name] = metric{Value: v, Unit: unit}
	m.notes[name] = note
}

type checkResult struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

type report struct {
	workload  workload
	seed      int64
	env       map[string]any
	checks    []checkResult
	e2e       *metricSet
	tails     *metricSet // untraced, too noisy to bound: printed always, per-layer when traced
	layer     *metricSet
	extra     *metricSet // printed, not part of the result line
	attempted uint64
	failed    uint64
}

func newReport(w workload, seed int64) *report {
	return &report{workload: w, seed: seed, e2e: newMetricSet(), tails: newMetricSet(), layer: newMetricSet(), extra: newMetricSet()}
}

func (r *report) check(name string, ok bool, detail string) {
	r.checks = append(r.checks, checkResult{Name: name, OK: ok, Detail: detail})
}

// print writes the environment, the verdicts and every metric as
// readable lines, saves the full result under .bench_build/results, and
// ends with the JSON result line.
func (r *report) print(traced bool) error {
	env, err := json.Marshal(r.env)
	if err != nil {
		return err
	}
	fmt.Printf("env %s\n", env)
	correct := true
	for _, c := range r.checks {
		verdict := "ok"
		if !c.OK {
			verdict, correct = "FAIL", false
		}
		fmt.Printf("check %-22s %-4s %s\n", c.Name, verdict, c.Detail)
	}
	out := r.e2e
	if traced {
		out = r.layer
		for _, name := range r.tails.names {
			out.put(name, r.tails.vals[name].Value, r.tails.vals[name].Unit, r.tails.notes[name])
		}
		r.tails = newMetricSet()
	}
	fmt.Printf("%-40s %16.6f %-6s %d of %d\n", "failed_ratio", float64(r.failed)/float64(r.attempted), "ratio", r.failed, r.attempted)
	for _, set := range []*metricSet{r.e2e, r.tails, r.layer, r.extra} {
		for _, name := range set.names {
			v := set.vals[name]
			fmt.Printf("%-40s %16.4f %-6s %s\n", name, v.Value, v.Unit, set.notes[name])
			if set == out && (math.IsNaN(v.Value) || math.IsInf(v.Value, 0)) {
				fmt.Printf("check %-22s FAIL %s has no samples\n", "metric_measured", name)
				correct = false
				set.vals[name] = metric{Value: 0, Unit: v.Unit}
			}
		}
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, r.attempted, r.failed, out.vals}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if err := r.save(traced, correct); err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func (r *report) save(traced bool, correct bool) error {
	dir := filepath.Join(".bench_build", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	all := map[string]any{}
	for _, set := range []*metricSet{r.e2e, r.tails, r.layer, r.extra} {
		names := append([]string(nil), set.names...)
		sort.Strings(names)
		for _, n := range names {
			v := set.vals[n]
			all[n] = map[string]any{"value": finite(v.Value), "unit": v.Unit, "note": set.notes[n]}
		}
	}
	trace := 0
	if traced {
		trace = 1
	}
	doc, err := json.MarshalIndent(map[string]any{
		"env": r.env, "checks": r.checks, "correct": correct,
		"attempted": r.attempted, "failed": r.failed, "metrics": all,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", r.workload.name, r.seed, trace)), doc, 0o644)
}

// finite maps NaN and ±Inf (no samples) to nil for JSON.
func finite(v float64) any {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	return v
}
