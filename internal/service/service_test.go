package service

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"accrual/internal/clock"
	"accrual/internal/core"
	"accrual/internal/phi"
	"accrual/internal/simple"
)

var start = time.Date(2005, 3, 22, 0, 0, 0, 0, time.UTC)

func simpleFactory(_ string, start time.Time) core.Detector {
	return simple.New(start)
}

func newTestMonitor(opts ...MonitorOption) (*Monitor, *clock.Manual) {
	clk := clock.NewManual(start)
	return NewMonitor(clk, simpleFactory, opts...), clk
}

func hb(from string, seq uint64, at time.Time) core.Heartbeat {
	return core.Heartbeat{From: from, Seq: seq, Arrived: at}
}

func TestRegisterAndProcesses(t *testing.T) {
	m, _ := newTestMonitor()
	if err := m.Register("b"); err != nil {
		t.Fatal(err)
	}
	if err := m.Register("a"); err != nil {
		t.Fatal(err)
	}
	if err := m.Register("a"); !errors.Is(err, ErrAlreadyRegistered) {
		t.Errorf("duplicate register: %v", err)
	}
	got := m.Processes()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("Processes = %v", got)
	}
}

func TestDeregister(t *testing.T) {
	m, _ := newTestMonitor()
	_ = m.Register("a")
	if !m.Deregister("a") {
		t.Error("Deregister existing should return true")
	}
	if m.Deregister("a") {
		t.Error("Deregister missing should return false")
	}
	if _, err := m.Suspicion("a"); !errors.Is(err, ErrUnknownProcess) {
		t.Errorf("Suspicion after deregister: %v", err)
	}
}

func TestHeartbeatAutoRegisters(t *testing.T) {
	m, clk := newTestMonitor()
	if err := m.Heartbeat(hb("w1", 1, clk.Now())); err != nil {
		t.Fatal(err)
	}
	if got := m.Processes(); len(got) != 1 || got[0] != "w1" {
		t.Errorf("Processes = %v", got)
	}
}

func TestHeartbeatWithoutAutoRegister(t *testing.T) {
	m, clk := newTestMonitor(WithoutAutoRegister())
	if err := m.Heartbeat(hb("w1", 1, clk.Now())); !errors.Is(err, ErrUnknownProcess) {
		t.Errorf("unregistered heartbeat: %v", err)
	}
	_ = m.Register("w1")
	if err := m.Heartbeat(hb("w1", 1, clk.Now())); err != nil {
		t.Fatal(err)
	}
}

func TestSuspicionTracksClock(t *testing.T) {
	m, clk := newTestMonitor()
	_ = m.Heartbeat(hb("p", 1, clk.Now()))
	clk.Advance(3 * time.Second)
	lvl, err := m.Suspicion("p")
	if err != nil {
		t.Fatal(err)
	}
	if lvl != 3 {
		t.Errorf("level = %v, want 3", lvl)
	}
}

func TestSnapshotAndRanked(t *testing.T) {
	m, clk := newTestMonitor()
	_ = m.Heartbeat(hb("old", 1, clk.Now()))
	clk.Advance(5 * time.Second)
	_ = m.Heartbeat(hb("fresh", 1, clk.Now()))
	clk.Advance(time.Second)

	snap := m.Snapshot()
	if len(snap) != 2 || snap["old"] != 6 || snap["fresh"] != 1 {
		t.Errorf("Snapshot = %v", snap)
	}
	ranked := m.Ranked()
	if len(ranked) != 2 || ranked[0].ID != "fresh" || ranked[1].ID != "old" {
		t.Errorf("Ranked = %v", ranked)
	}
}

func TestRankedTieBreaksByID(t *testing.T) {
	m, clk := newTestMonitor()
	_ = m.Heartbeat(hb("b", 1, clk.Now()))
	_ = m.Heartbeat(hb("a", 1, clk.Now()))
	ranked := m.Ranked()
	if ranked[0].ID != "a" || ranked[1].ID != "b" {
		t.Errorf("Ranked = %v", ranked)
	}
}

func TestAppConstantPolicy(t *testing.T) {
	m, clk := newTestMonitor()
	_ = m.Heartbeat(hb("p", 1, clk.Now()))
	app := m.NewApp("app", ConstantPolicy(2))
	if s, err := app.Status("p"); err != nil || s != core.Trusted {
		t.Errorf("fresh: %v %v", s, err)
	}
	clk.Advance(3 * time.Second)
	if s, _ := app.Status("p"); s != core.Suspected {
		t.Errorf("stale: %v", s)
	}
	// Heartbeat recovers.
	_ = m.Heartbeat(hb("p", 2, clk.Now()))
	if s, _ := app.Status("p"); s != core.Trusted {
		t.Errorf("recovered: %v", s)
	}
	if _, err := app.Status("ghost"); !errors.Is(err, ErrUnknownProcess) {
		t.Errorf("unknown process: %v", err)
	}
}

func TestTwoAppsDifferentThresholds(t *testing.T) {
	// The differentiated-QoS story of §1.2: the same monitor serves an
	// aggressive app (low threshold) and a conservative one (high
	// threshold); the aggressive one suspects first.
	m, clk := newTestMonitor()
	_ = m.Heartbeat(hb("p", 1, clk.Now()))
	aggressive := m.NewApp("aggressive", ConstantPolicy(1))
	conservative := m.NewApp("conservative", ConstantPolicy(10))

	clk.Advance(2 * time.Second) // level 2
	sa, _ := aggressive.Status("p")
	sc, _ := conservative.Status("p")
	if sa != core.Suspected || sc != core.Trusted {
		t.Errorf("level 2: aggressive %v, conservative %v", sa, sc)
	}
	clk.Advance(20 * time.Second) // level 22
	sc, _ = conservative.Status("p")
	if sc != core.Suspected {
		t.Errorf("level 22: conservative %v", sc)
	}
}

func TestAppHysteresisPolicy(t *testing.T) {
	m, clk := newTestMonitor()
	_ = m.Heartbeat(hb("p", 1, clk.Now()))
	app := m.NewApp("app", HysteresisPolicy(3, 0.5))
	clk.Advance(4 * time.Second)
	if s, _ := app.Status("p"); s != core.Suspected {
		t.Fatal("should suspect at level 4")
	}
	// A heartbeat brings the level to 0 <= T0: trust again.
	_ = m.Heartbeat(hb("p", 2, clk.Now()))
	if s, _ := app.Status("p"); s != core.Trusted {
		t.Error("should trust after recovery below the low threshold")
	}
}

func TestAppAdaptivePolicy(t *testing.T) {
	m, clk := newTestMonitor()
	_ = m.Heartbeat(hb("p", 1, clk.Now()))
	app := m.NewApp("app", AdaptivePolicy())
	// Crash: level grows forever; the adaptive policy must eventually
	// suspect and stay suspected.
	var last core.Status
	for i := 0; i < 200; i++ {
		clk.Advance(time.Second)
		last, _ = app.Status("p")
	}
	if last != core.Suspected {
		t.Errorf("adaptive app did not converge to suspected: %v", last)
	}
}

func TestAppPoll(t *testing.T) {
	m, clk := newTestMonitor()
	_ = m.Heartbeat(hb("a", 1, clk.Now()))
	clk.Advance(5 * time.Second)
	_ = m.Heartbeat(hb("b", 1, clk.Now()))
	app := m.NewApp("app", ConstantPolicy(3))
	suspects := app.Poll()
	if len(suspects) != 1 || suspects[0] != "a" {
		t.Errorf("Poll = %v, want [a]", suspects)
	}
}

func TestAppTransitionHandler(t *testing.T) {
	m, clk := newTestMonitor()
	_ = m.Heartbeat(hb("p", 1, clk.Now()))
	var events []core.Transition
	var eventIDs []string
	app := m.NewApp("app", ConstantPolicy(2),
		WithTransitionHandler(func(proc string, tr core.Transition, _ core.Status) {
			events = append(events, tr)
			eventIDs = append(eventIDs, proc)
		}))
	_, _ = app.Status("p") // trusted, no transition
	clk.Advance(3 * time.Second)
	_, _ = app.Status("p") // S-transition
	_ = m.Heartbeat(hb("p", 2, clk.Now()))
	_, _ = app.Status("p") // T-transition
	if len(events) != 2 {
		t.Fatalf("events = %d, want 2", len(events))
	}
	if events[0].Kind != core.STransition || events[1].Kind != core.TTransition {
		t.Errorf("kinds = %v, %v", events[0].Kind, events[1].Kind)
	}
	if eventIDs[0] != "p" || eventIDs[1] != "p" {
		t.Errorf("ids = %v", eventIDs)
	}
}

func TestAppName(t *testing.T) {
	m, _ := newTestMonitor()
	if got := m.NewApp("video", ConstantPolicy(1)).Name(); got != "video" {
		t.Errorf("Name = %q", got)
	}
}

func TestMonitorWithPhiFactory(t *testing.T) {
	clk := clock.NewManual(start)
	m := NewMonitor(clk, func(_ string, start time.Time) core.Detector {
		return phi.New(start, phi.WithBootstrap(100*time.Millisecond, 25*time.Millisecond))
	})
	for i := 1; i <= 50; i++ {
		clk.Advance(100 * time.Millisecond)
		_ = m.Heartbeat(hb("p", uint64(i), clk.Now()))
	}
	lvl, err := m.Suspicion("p")
	if err != nil {
		t.Fatal(err)
	}
	if lvl != 0 {
		t.Errorf("phi right after heartbeat = %v, want 0", lvl)
	}
	clk.Advance(2 * time.Second)
	lvl, _ = m.Suspicion("p")
	if lvl < 5 {
		t.Errorf("phi 2s late = %v, want large", lvl)
	}
}

func TestMonitorConcurrentAccess(t *testing.T) {
	m, clk := newTestMonitor()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := []string{"a", "b", "c", "d"}[w]
			for i := 1; i <= 200; i++ {
				_ = m.Heartbeat(hb(id, uint64(i), clk.Now()))
				_, _ = m.Suspicion(id)
				m.Snapshot()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		app := m.NewApp("app", ConstantPolicy(1))
		for i := 0; i < 200; i++ {
			app.Poll()
			clk.Advance(time.Millisecond)
		}
	}()
	wg.Wait()
	if got := len(m.Processes()); got != 4 {
		t.Errorf("processes = %d, want 4", got)
	}
}

func TestKnown(t *testing.T) {
	m, clk := newTestMonitor()
	if m.Known("p") {
		t.Error("Known before registration")
	}
	_ = m.Heartbeat(hb("p", 1, clk.Now()))
	if !m.Known("p") {
		t.Error("not Known after heartbeat")
	}
	m.Deregister("p")
	if m.Known("p") {
		t.Error("Known after deregistration")
	}
}

func TestLen(t *testing.T) {
	m, clk := newTestMonitor()
	if m.Len() != 0 {
		t.Errorf("Len = %d, want 0", m.Len())
	}
	for i := 0; i < 100; i++ {
		_ = m.Heartbeat(hb(fmt.Sprintf("p%d", i), 1, clk.Now()))
	}
	if m.Len() != 100 {
		t.Errorf("Len = %d, want 100", m.Len())
	}
}

// TestHeartbeatAutoRegisterStampsArrival verifies that a process created
// by auto-registration gets the heartbeat's arrival time as its detector
// start time — not the ingestion-time clock reading — so replayed or
// simulated heartbeat streams don't skew the first inter-arrival sample.
func TestHeartbeatAutoRegisterStampsArrival(t *testing.T) {
	var starts []time.Time
	clk := clock.NewManual(start)
	m := NewMonitor(clk, func(_ string, st time.Time) core.Detector {
		starts = append(starts, st)
		return simple.New(st)
	})
	arrived := start.Add(-30 * time.Second) // replayed: before "now"
	if err := m.Heartbeat(hb("replayed", 1, arrived)); err != nil {
		t.Fatal(err)
	}
	// A heartbeat without an arrival stamp falls back to the clock.
	if err := m.Heartbeat(core.Heartbeat{From: "live", Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if len(starts) != 2 {
		t.Fatalf("factory calls = %d, want 2", len(starts))
	}
	if !starts[0].Equal(arrived) {
		t.Errorf("replayed start = %v, want %v", starts[0], arrived)
	}
	if !starts[1].Equal(start) {
		t.Errorf("live start = %v, want clock now %v", starts[1], start)
	}
}

// countingDetector counts Suspicion evaluations. It deliberately does
// not publish eval snapshots — the shadowing EvalSnapshot method below
// has a different signature, so the promoted implementation from
// simple.Detector is suppressed and queries take the locked fallback
// path, where every evaluation is a counted Suspicion call.
type countingDetector struct {
	simple.Detector
	evals int
}

func (d *countingDetector) Suspicion(now time.Time) core.Level {
	d.evals++
	return d.Detector.Suspicion(now)
}

// EvalSnapshot shadows the promoted snapshotter with an incompatible
// signature so *countingDetector does not satisfy core.EvalSnapshotter.
func (d *countingDetector) EvalSnapshot(struct{}) {}

// TestAppStatusSingleEvaluation pins the satellite fix for the doubled
// detector query: one App.Status call must evaluate the underlying
// detector exactly once (the old existence probe via Monitor.Suspicion
// read a level and threw it away).
func TestAppStatusSingleEvaluation(t *testing.T) {
	var det *countingDetector
	clk := clock.NewManual(start)
	m := NewMonitor(clk, func(_ string, st time.Time) core.Detector {
		det = &countingDetector{Detector: *simple.New(st)}
		return det
	})
	_ = m.Heartbeat(hb("p", 1, clk.Now()))
	app := m.NewApp("app", ConstantPolicy(1))
	if _, err := app.Status("p"); err != nil {
		t.Fatal(err)
	}
	if det.evals != 1 {
		t.Errorf("detector evaluations per Status = %d, want 1", det.evals)
	}
}

func TestWithShardCount(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{-3, defaultShardCount}, {1, 1}, {3, 4}, {64, 64}, {100, 128}, {1 << 20, 1 << 16},
	} {
		m := NewMonitor(clock.NewManual(start), simpleFactory, WithShardCount(tc.in))
		if got := len(m.shards); got != tc.want {
			t.Errorf("WithShardCount(%d): shards = %d, want %d", tc.in, got, tc.want)
		}
	}
	// All operations still work with a single shard.
	m := NewMonitor(clock.NewManual(start), simpleFactory, WithShardCount(1))
	for i := 0; i < 50; i++ {
		_ = m.Heartbeat(hb(fmt.Sprintf("p%d", i), 1, m.Now()))
	}
	if got := m.Len(); got != 50 {
		t.Errorf("Len = %d, want 50", got)
	}
	if got := len(m.Processes()); got != 50 {
		t.Errorf("Processes = %d, want 50", got)
	}
}

// TestLevelFuncSurvivesReregistration ensures an App view's cached
// per-process handle re-resolves after a deregister/register cycle
// instead of reading the orphaned detector.
func TestLevelFuncSurvivesReregistration(t *testing.T) {
	m, clk := newTestMonitor()
	_ = m.Heartbeat(hb("p", 1, clk.Now()))
	app := m.NewApp("app", ConstantPolicy(2))
	clk.Advance(5 * time.Second)
	if s, _ := app.Status("p"); s != core.Suspected {
		t.Fatalf("stale status = %v, want suspected", s)
	}
	m.Deregister("p")
	// Re-register with a fresh heartbeat: the level resets to zero, so
	// the existing view must flip back to trusted.
	_ = m.Heartbeat(hb("p", 1, clk.Now()))
	if s, err := app.Status("p"); err != nil || s != core.Trusted {
		t.Errorf("re-registered status = %v (%v), want trusted", s, err)
	}
}

func TestEachLevel(t *testing.T) {
	m, clk := newTestMonitor()
	_ = m.Heartbeat(hb("a", 1, clk.Now()))
	clk.Advance(2 * time.Second)
	_ = m.Heartbeat(hb("b", 1, clk.Now()))
	clk.Advance(time.Second)
	got := map[string]core.Level{}
	m.EachLevel(func(id string, lvl core.Level) { got[id] = lvl })
	if len(got) != 2 || got["a"] != 3 || got["b"] != 1 {
		t.Errorf("EachLevel = %v", got)
	}
}

func TestAppPollPrunesDeregisteredViews(t *testing.T) {
	m, clk := newTestMonitor()
	_ = m.Heartbeat(hb("a", 1, clk.Now()))
	_ = m.Heartbeat(hb("b", 1, clk.Now()))
	app := m.NewApp("app", ConstantPolicy(1))
	app.Poll()
	if len(app.views) != 2 {
		t.Fatalf("views = %d, want 2", len(app.views))
	}
	m.Deregister("a")
	app.Poll()
	if len(app.views) != 1 {
		t.Errorf("views = %d after deregistration, want 1", len(app.views))
	}
	if _, ok := app.views["b"]; !ok {
		t.Error("surviving view pruned")
	}
}

func TestRankedAppendReusesBuffer(t *testing.T) {
	m, clk := newTestMonitor()
	for i := 0; i < 20; i++ {
		_ = m.Heartbeat(hb(fmt.Sprintf("w%02d", i), 1, clk.Now()))
		clk.Advance(100 * time.Millisecond)
	}
	want := m.Ranked()
	buf := m.RankedAppend(nil)
	if len(buf) != len(want) {
		t.Fatalf("RankedAppend len = %d, want %d", len(buf), len(want))
	}
	for i := range want {
		if buf[i] != want[i] {
			t.Fatalf("RankedAppend[%d] = %+v, want %+v", i, buf[i], want[i])
		}
	}
	// A steady-state refresh through the same buffer allocates nothing.
	if allocs := testing.AllocsPerRun(50, func() {
		buf = m.RankedAppend(buf[:0])
	}); allocs > 0 {
		t.Errorf("RankedAppend refresh: %v allocs/op, want 0", allocs)
	}
	// Appending after existing content leaves the prefix alone.
	pre := []RankedProcess{{ID: "sentinel", Level: -1}}
	out := m.RankedAppend(pre)
	if out[0].ID != "sentinel" || len(out) != len(want)+1 {
		t.Errorf("RankedAppend with prefix: %+v", out[:1])
	}
}

func TestTopKMatchesSortedSuffix(t *testing.T) {
	m, clk := newTestMonitor()
	// Mixed levels, with a deliberate tie group at the most-suspected end.
	for i := 0; i < 17; i++ {
		_ = m.Heartbeat(hb(fmt.Sprintf("w%02d", i), 1, clk.Now()))
		if i%3 != 0 {
			clk.Advance(time.Second)
		}
	}
	ranked := m.Ranked() // least → most suspected
	n := len(ranked)
	for _, k := range []int{1, 3, n - 1, n, n + 5} {
		got := m.TopK(k, nil)
		wantLen := k
		if wantLen > n {
			wantLen = n
		}
		if len(got) != wantLen {
			t.Fatalf("TopK(%d) len = %d, want %d", k, len(got), wantLen)
		}
		// Expected: the most-suspected wantLen entries, highest level
		// first, ties by ascending id — i.e. the reverse-level order of
		// Ranked's tail, with tie groups re-sorted by id.
		for i, g := range got {
			if want := topKWant(ranked, i); g != want {
				t.Errorf("TopK(%d)[%d] = %+v, want %+v", k, i, g, want)
			}
		}
	}
	if got := m.TopK(0, nil); got != nil {
		t.Errorf("TopK(0) = %+v, want nil", got)
	}
	// Buffer reuse across refreshes is allocation-free.
	buf := m.TopK(5, nil)
	if allocs := testing.AllocsPerRun(50, func() {
		buf = m.TopK(5, buf[:0])
	}); allocs > 0 {
		t.Errorf("TopK refresh: %v allocs/op, want 0", allocs)
	}
}

// topKWant derives the expected i-th TopK entry from a Ranked snapshot:
// sort descending by level, ties ascending by id.
func topKWant(ranked []RankedProcess, i int) RankedProcess {
	desc := make([]RankedProcess, len(ranked))
	copy(desc, ranked)
	sort.Slice(desc, func(a, b int) bool {
		if desc[a].Level != desc[b].Level {
			return desc[a].Level > desc[b].Level
		}
		return desc[a].ID < desc[b].ID
	})
	return desc[i]
}

func TestAppendShardInfosCoversRegistry(t *testing.T) {
	m, clk := newTestMonitor()
	want := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := fmt.Sprintf("proc-%03d", i)
		_ = m.Heartbeat(hb(id, 1, clk.Now()))
		want[id] = true
	}
	var infos []ProcessInfo
	for s := 0; s < m.ShardCount(); s++ {
		infos = m.AppendShardInfos(s, clk.Now(), infos)
	}
	if len(infos) != len(want) {
		t.Fatalf("shard walk saw %d processes, want %d", len(infos), len(want))
	}
	for _, info := range infos {
		if !want[info.ID] {
			t.Errorf("unexpected or repeated id %q", info.ID)
		}
		delete(want, info.ID)
	}
	// Out-of-range shards return dst unchanged, not a panic.
	dst := []ProcessInfo{{ID: "sentinel"}}
	for _, s := range []int{-1, m.ShardCount()} {
		if got := m.AppendShardInfos(s, clk.Now(), dst); len(got) != 1 || got[0].ID != "sentinel" {
			t.Errorf("AppendShardInfos(%d) = %v, want dst unchanged", s, got)
		}
	}
}
