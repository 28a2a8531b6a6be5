package main

import (
	"math/rand/v2"
	"sync"
	"time"

	"accrual/internal/core"
	"accrual/internal/federation"
)

// detectEvery is how often the benchmark polls each crashed process's
// kind App (App.Status) until it returns Suspected.
const detectEvery = 10 * time.Millisecond

// callSpan is one traced periodic-consumer call.
type callSpan struct {
	name       string
	start, end int64
}

type crashRec struct {
	slot, kind, win int
	id              string
	at              int64 // due time of the first beat not sent
}

// winStats is what the stack side measures inside one window.
type winStats struct {
	crashes    int
	undetected int
	detectMs   [numKinds]sample
	detectAt   [numKinds][]int64 // crash times, parallel to detectMs
	deregNs    sample
	polls      int
	liveChecks float64 // live processes covered by kind-App polls
	trusted    float64 // ... of which the poll returned Trusted
	calls      map[string]sample
}

// runState drives one measured run against a built stack: the periodic
// consumers at accruald's cadences, the seeded crash schedule, crash
// detection and in-place replacement.
type runState struct {
	w       workload
	s       *stack
	sched   *schedule
	gen     *genProc
	t0      int64
	windows [][2]int64
	traced  int // index of the traced window, -1 when untraced

	mu       sync.Mutex
	crashAt  map[string]int64 // crashed, not yet replaced: id → crash time
	pending  []crashRec
	slotIDs  []string
	slotGens []int
	// upAt is when each slot's current process counts as up: 0 for the
	// original fleet, two intervals after the revive for a replacement
	// (by then its first beat has registered it).
	upAt    []int64
	revived []string // replacement ids, in order
	// unregistered holds replacement ids whose first beat has not yet
	// registered them; they are not live for P_A until it has.
	unregistered map[string]bool
	stats        []*winStats
	spans        []callSpan
	retunes      int
	rng          *rand.Rand
	carry        float64
	procsOf      [numKinds]int

	stop chan struct{}
	wg   sync.WaitGroup
}

func newRunState(w workload, sched *schedule, seed int64) *runState {
	rs := &runState{
		w:            w,
		sched:        sched,
		crashAt:      make(map[string]int64),
		unregistered: make(map[string]bool),
		slotIDs:      make([]string, w.procs),
		slotGens:     make([]int, w.procs),
		upAt:         make([]int64, w.procs),
		rng:          rand.New(rand.NewPCG(uint64(seed), 0xc4a54)),
		traced:       -1,
	}
	for i := range rs.slotIDs {
		rs.slotIDs[i] = w.slotID(i, 0)
		rs.procsOf[w.slotKind(i)]++
	}
	return rs
}

// live reports whether id had not crashed at instant at.
func (rs *runState) live(id string, at time.Time) bool {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	c, ok := rs.crashAt[id]
	return !ok || at.UnixNano() < c
}

func (rs *runState) window(t int64) int {
	for i, w := range rs.windows {
		if t >= w[0] && t < w[1] {
			return i
		}
	}
	return -1
}

func (rs *runState) end() int64 { return rs.windows[len(rs.windows)-1][1] }

// start launches the consumer goroutines; they run until the last
// window ends (the detection loop until halt).
func (rs *runState) start() {
	rs.stop = make(chan struct{})
	rs.stats = make([]*winStats, len(rs.windows))
	for i := range rs.stats {
		rs.stats[i] = &winStats{calls: make(map[string]sample)}
	}
	s, w := rs.s, rs.w
	rs.periodic("qos.sample", w.interval, func() { s.hub.QoS().Sample(s.mon) })
	rs.periodic("watcher.poll", w.interval, func() { s.watchApp.Poll() })
	rs.periodic("recorder.tick", w.interval, func() { s.rec.Tick() })
	rs.periodic("federation.round", federation.DefaultInterval, func() { s.fed.Round() })
	rs.periodic("autotune.round", flagTuneEvery, func() {
		// accruald tunes a fleet of one detector kind; a mixed fleet
		// gets the dry-run plan (same measurement walk) so φ's knobs are
		// never applied to the other kinds.
		if len(w.kinds) > 1 {
			s.tuner.Plan()
			return
		}
		if p := s.tuner.Round(); p.Applied {
			rs.mu.Lock()
			rs.retunes++
			rs.mu.Unlock()
		}
	})
	rs.periodic("app.poll", w.interval, rs.pollApps)
	for wi, win := range rs.windows {
		rs.periodicFrom("crash", time.Second, win[0], win[1]-int64(w.grace), func() { rs.crashSome(wi) })
	}
	rs.wg.Add(1)
	go rs.detectLoop()
}

// halt stops the detection loop and waits for every goroutine.
func (rs *runState) halt() {
	close(rs.stop)
	rs.wg.Wait()
}

func (rs *runState) periodic(name string, every time.Duration, fn func()) {
	rs.periodicFrom(name, every, rs.t0, rs.end(), fn)
}

// periodicFrom calls fn at from, from+every, … while before until,
// recording each call's duration against the window of its due time.
func (rs *runState) periodicFrom(name string, every time.Duration, from, until int64, fn func()) {
	rs.wg.Add(1)
	go func() {
		defer rs.wg.Done()
		for due := from; due < until; due += int64(every) {
			select {
			case <-rs.stop:
				return
			case <-time.After(time.Until(time.Unix(0, due))):
			}
			start := time.Now().UnixNano()
			fn()
			end := time.Now().UnixNano()
			wi := rs.window(due)
			if wi < 0 {
				continue
			}
			rs.mu.Lock()
			st := rs.stats[wi]
			st.calls[name] = append(st.calls[name], float64(end-start))
			if wi == rs.traced {
				rs.spans = append(rs.spans, callSpan{name: name, start: start, end: end})
			}
			rs.mu.Unlock()
		}
	}()
}

// pollApps polls every kind App once and folds the verdicts on live
// processes into P_A.
func (rs *runState) pollApps() {
	now := time.Now()
	wi := rs.window(now.UnixNano())
	for _, k := range rs.w.kinds {
		suspects := rs.s.kindApps[k].Poll()
		if wi < 0 {
			continue
		}
		rs.mu.Lock()
		live := rs.procsOf[k]
		for id, at := range rs.crashAt {
			if kindOf(id) == k && at <= now.UnixNano() {
				live--
			}
		}
		for id := range rs.unregistered {
			if rs.s.mon.Known(id) {
				delete(rs.unregistered, id)
			} else if kindOf(id) == k {
				live--
			}
		}
		suspectedLive := 0
		for _, id := range suspects {
			if kindOf(id) != k {
				continue
			}
			if at, crashed := rs.crashAt[id]; !crashed || now.UnixNano() < at {
				suspectedLive++
			}
		}
		st := rs.stats[wi]
		st.polls++
		st.liveChecks += float64(live)
		st.trusted += float64(live - suspectedLive)
		rs.mu.Unlock()
	}
}

// crashLead is how far ahead of its crash time a victim is chosen, so
// the crash command reaches the generator before the beat is due.
const crashLead = 150 * time.Millisecond

// crashSome crashes the workload's share of live processes: each victim
// stops beating from its next due time after crashLead.
func (rs *runState) crashSome(wi int) {
	rs.mu.Lock()
	live := rs.w.procs - len(rs.crashAt)
	want := rs.w.crashShare*float64(live) + rs.carry
	n := int(want)
	rs.carry = want - float64(n)
	after := time.Now().Add(crashLead).UnixNano()
	var cmds []string
	for ; n > 0; n-- {
		slot := rs.rng.IntN(rs.w.procs)
		up := func(slot int) bool { return rs.crashAt[rs.slotIDs[slot]] == 0 && rs.upAt[slot] <= after }
		for tries := 0; !up(slot) && tries < rs.w.procs; tries++ {
			slot = (slot + 1) % rs.w.procs
		}
		if !up(slot) {
			break // nobody is up
		}
		id := rs.slotIDs[slot]
		at := rs.sched.nextDue(rs.t0, slot, after)
		cwi := rs.window(at)
		if cwi < 0 {
			cwi = wi
		}
		rs.crashAt[id] = at
		rs.pending = append(rs.pending, crashRec{slot: slot, kind: kindOf(id), win: cwi, id: id, at: at})
		rs.stats[cwi].crashes++
		cmds = append(cmds, "crash "+itoa(slot)+" "+itoa64(at))
	}
	rs.mu.Unlock()
	for _, c := range cmds {
		rs.gen.send(c)
	}
}

// detectLoop polls each crashed process's kind App every detectEvery
// from its crash time on. On the first Suspected it records the
// detection time, deregisters the process and tells the generator to
// beat the slot again under a fresh id, which registers on its first
// beat and takes over the freed registry slot.
func (rs *runState) detectLoop() {
	defer rs.wg.Done()
	tick := time.NewTicker(detectEvery)
	defer tick.Stop()
	var due []crashRec
	for {
		select {
		case <-rs.stop:
			return
		case <-tick.C:
		}
		now := time.Now().UnixNano()
		rs.mu.Lock()
		due = due[:0]
		for _, p := range rs.pending {
			if now >= p.at {
				due = append(due, p)
			}
		}
		rs.mu.Unlock()
		for _, p := range due {
			st, err := rs.s.kindApps[p.kind].Status(p.id)
			if err != nil || st != core.Suspected {
				continue
			}
			at := time.Now().UnixNano()
			rs.s.mon.Deregister(p.id)
			deregNs := time.Now().UnixNano() - at
			rs.mu.Lock()
			ws := rs.stats[p.win]
			if at < rs.windows[p.win][1] {
				ws.detectMs[p.kind] = append(ws.detectMs[p.kind], float64(at-p.at)/1e6)
				ws.detectAt[p.kind] = append(ws.detectAt[p.kind], p.at)
			}
			if rs.window(at) >= 0 {
				ws.deregNs = append(ws.deregNs, float64(deregNs))
			}
			delete(rs.crashAt, p.id)
			for i := range rs.pending {
				if rs.pending[i].id == p.id {
					rs.pending = append(rs.pending[:i], rs.pending[i+1:]...)
					break
				}
			}
			rs.slotGens[p.slot]++
			fresh := rs.w.slotID(p.slot, rs.slotGens[p.slot])
			rs.slotIDs[p.slot] = fresh
			rs.revived = append(rs.revived, fresh)
			rs.unregistered[fresh] = true
			rs.upAt[p.slot] = at + 2*int64(rs.w.interval)
			rs.mu.Unlock()
			rs.gen.send("revive " + itoa(p.slot) + " " + fresh)
		}
	}
}

// finish counts, per window, the crashes not detected inside it.
func (rs *runState) finish() {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	for _, st := range rs.stats {
		detected := 0
		for k := range st.detectMs {
			detected += len(st.detectMs[k])
		}
		st.undetected = st.crashes - detected
	}
}
