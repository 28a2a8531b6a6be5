package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"net/netip"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"accrual/internal/core"
	"accrual/internal/telemetry"
	"accrual/internal/transport"
)

// The generator is a separate process so its CPU stays out of the
// stack's cpu_cores and a stall in the stack cannot stall its schedule.
// It owns one UDP socket (beats out, federation digests in: it is the
// stack's federation sink peer) and at most two keep-alive HTTP
// connections (one for /v1/suspicion, one for /v1/metrics). The stack
// drives it with one command per line on its stdin; it answers with one
// JSON object per line on its stdout.
//
//	reg ADDR AT           registration: one schedule round of first beats
//	                      starting at AT (Unix ns); answers "reg"
//	warm ADDR AT          one more schedule round from AT; answers "reg"
//	resend ADDR SLOT...   beat the listed slots again now; answers "reg"
//	run UDP HTTP T0 S1 E1 [S2 E2]
//	                      start the open-loop schedule at T0 (Unix ns);
//	                      [S, E) are the measured windows by due time
//	crash SLOT DUE        stop beating SLOT from due time DUE on
//	revive SLOT ID        beat SLOT again, as the fresh process ID
//	stop                  end the schedule; answers "done"

type genSlot struct {
	id      string
	seq     uint64
	crashAt int64 // due time of the first beat not sent; 0 while live
	// revived marks a replacement id; it is queryable once its second
	// beat is out, so its first (registering) beat has surely arrived.
	revived bool
}

// queryable reports whether a /v1/suspicion for the slot must succeed:
// the process is registered and has not crashed.
func (s *genSlot) queryable() bool {
	return s.crashAt == 0 && s.seq >= 1 && (!s.revived || s.seq >= 2)
}

// genWindow is what the generator measured inside one window, by due
// time. Latencies are nanoseconds from due time to the end of the read.
type genWindow struct {
	Beats        uint64    `json:"beats"`
	LateP99      float64   `json:"late_p99_ns"`
	LateMax      int64     `json:"late_max_ns"`
	Queries      []float64 `json:"queries"`
	QueryDue     []int64   `json:"query_due"`
	QueryFail    int       `json:"query_fail"`
	Scrapes      []float64 `json:"scrapes"`
	ScrapeFail   int       `json:"scrape_fail"`
	ScrapeParsed int       `json:"scrape_parsed"`
	ParseErr     string    `json:"parse_err,omitempty"`

	late hist
}

type genMsg struct {
	Op         string       `json:"op"`
	Sink       string       `json:"sink,omitempty"`
	GOMAXPROCS int          `json:"gomaxprocs,omitempty"`
	Beats      uint64       `json:"beats"`
	Dgrams     uint64       `json:"dgrams"`
	MinPer     int          `json:"min_per"`
	MaxPer     int          `json:"max_per"`
	Windows    []*genWindow `json:"windows,omitempty"`
	SinkFrames uint64       `json:"sink_frames"`
	SinkBytes  uint64       `json:"sink_bytes"`
	Err        string       `json:"err,omitempty"`
}

type gen struct {
	w     workload
	sched *schedule
	conn  *net.UDPConn
	enc   *transport.BatchEncoder
	buf   []byte

	mu    sync.Mutex // guards slots (beat loop vs query picker vs commands)
	slots []genSlot

	beats, dgrams  uint64
	minPer, maxPer int

	sinkFrames, sinkBytes atomic.Uint64
}

func runGen(w workload, seed int64) error {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return fmt.Errorf("generator socket: %w", err)
	}
	defer conn.Close()
	g := &gen{
		w:     w,
		sched: newSchedule(w, seed),
		conn:  conn,
		enc:   transport.NewBatchEncoder(max(1, w.frame)),
		slots: make([]genSlot, w.procs),
	}
	for i := range g.slots {
		g.slots[i].id = w.slotID(i, 0)
	}
	go g.sink()

	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(genMsg{Op: "hello", Sink: conn.LocalAddr().String(), GOMAXPROCS: runtime.GOMAXPROCS(0)}); err != nil {
		return err
	}
	cmds := make(chan []string) // unbuffered: the reader hands over one line at a time
	go func() {
		sc := bufio.NewScanner(os.Stdin)
		sc.Buffer(make([]byte, 1<<16), 1<<24)
		for sc.Scan() {
			cmds <- strings.Fields(sc.Text())
		}
		close(cmds)
	}()
	for f := range cmds {
		if len(f) == 0 {
			continue
		}
		var msg genMsg
		switch f[0] {
		case "reg":
			msg, err = g.round(f[1:], true)
		case "warm":
			msg, err = g.round(f[1:], false)
		case "resend":
			msg, err = g.resend(f[1:])
		case "run":
			msg, err = g.run(f[1:], cmds, seed)
		default:
			err = fmt.Errorf("unexpected command %q", f[0])
		}
		if err != nil {
			msg = genMsg{Op: "error", Err: err.Error()}
		}
		if err := out.Encode(msg); err != nil {
			return err
		}
	}
	return nil
}

// sink counts the federation digests the stack gossips to this process.
func (g *gen) sink() {
	buf := make([]byte, 64<<10)
	for {
		n, err := g.conn.Read(buf)
		if err != nil {
			return
		}
		g.sinkFrames.Add(1)
		g.sinkBytes.Add(uint64(n))
	}
}

func parseAddr(s string) (netip.AddrPort, error) {
	ap, err := netip.ParseAddrPort(s)
	if err != nil {
		return ap, fmt.Errorf("address %q: %w", s, err)
	}
	return ap, nil
}

// send writes the beats of slots (under g.mu) with the given due time
// as one datagram: an AFB1 frame when the workload frames, else AFD1.
// It returns the number of beats sent.
func (g *gen) send(to netip.AddrPort, slots []int, due int64, live func(*genSlot) bool) (int, error) {
	sent := time.Unix(0, due)
	n := 0
	if g.w.frame == 0 {
		s := &g.slots[slots[0]]
		if !live(s) {
			return 0, nil
		}
		s.seq++
		var err error
		g.buf, err = transport.AppendHeartbeat(g.buf[:0], core.Heartbeat{From: s.id, Seq: s.seq, Sent: sent})
		if err != nil {
			return 0, err
		}
		n = 1
	} else {
		g.enc.Reset()
		for _, i := range slots {
			s := &g.slots[i]
			if !live(s) {
				continue
			}
			s.seq++
			if err := g.enc.Add(core.Heartbeat{From: s.id, Seq: s.seq, Sent: sent}); err != nil {
				return 0, err
			}
			n++
		}
		if n == 0 {
			return 0, nil
		}
		g.buf = append(g.buf[:0], g.enc.Bytes()...)
	}
	if _, err := g.conn.WriteToUDPAddrPort(g.buf, to); err != nil {
		return 0, fmt.Errorf("send: %w", err)
	}
	g.beats += uint64(n)
	g.dgrams++
	if g.minPer == 0 || n < g.minPer {
		g.minPer = n
	}
	g.maxPer = max(g.maxPer, n)
	return n, nil
}

// round sends one beat per slot, as one schedule round starting at the
// Unix-ns instant at: unit u's beat is due at at + phase[u]. reset
// starts a fresh stack instance: original ids, sequence numbers and
// counters.
func (g *gen) round(args []string, reset bool) (genMsg, error) {
	if len(args) != 2 {
		return genMsg{}, fmt.Errorf("round: want ADDR AT, got %q", args)
	}
	to, err := parseAddr(args[0])
	if err != nil {
		return genMsg{}, err
	}
	at, err := strconv.ParseInt(args[1], 10, 64)
	if err != nil {
		return genMsg{}, fmt.Errorf("round: %w", err)
	}
	if reset {
		g.mu.Lock()
		for i := range g.slots {
			g.slots[i] = genSlot{id: g.w.slotID(i, 0)}
		}
		g.beats, g.dgrams, g.minPer, g.maxPer = 0, 0, 0, 0
		g.mu.Unlock()
	}
	always := func(*genSlot) bool { return true }
	for u, slots := range g.sched.units {
		due := at + g.sched.phase[u]
		sleepUntil(due)
		g.mu.Lock()
		_, err := g.send(to, slots, due, always)
		g.mu.Unlock()
		if err != nil {
			return genMsg{}, err
		}
	}
	return genMsg{Op: "reg"}, nil
}

// resend beats the listed slots again right away: the retry for beats a
// registration round lost.
func (g *gen) resend(args []string) (genMsg, error) {
	if len(args) < 2 {
		return genMsg{}, fmt.Errorf("resend: want ADDR SLOT..., got %q", args)
	}
	to, err := parseAddr(args[0])
	if err != nil {
		return genMsg{}, err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	now := time.Now().UnixNano()
	always := func(*genSlot) bool { return true }
	for _, a := range args[1:] {
		i, err := strconv.Atoi(a)
		if err != nil || i < 0 || i >= len(g.slots) {
			return genMsg{}, fmt.Errorf("resend: bad slot %q", a)
		}
		if _, err := g.send(to, []int{i}, now, always); err != nil {
			return genMsg{}, err
		}
	}
	return genMsg{Op: "reg"}, nil
}

type runPlan struct {
	udp     netip.AddrPort
	http    string
	t0      int64
	windows [][2]int64
}

func (p *runPlan) window(due int64) int {
	for i, w := range p.windows {
		if due >= w[0] && due < w[1] {
			return i
		}
	}
	return -1
}

func (p *runPlan) end() int64 { return p.windows[len(p.windows)-1][1] }

func parseRun(args []string) (*runPlan, error) {
	if len(args) < 5 || len(args)%2 == 0 {
		return nil, fmt.Errorf("run: want UDP HTTP T0 and window pairs, got %q", args)
	}
	udp, err := parseAddr(args[0])
	if err != nil {
		return nil, err
	}
	nums := make([]int64, 0, len(args)-2)
	for _, a := range args[2:] {
		v, err := strconv.ParseInt(a, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("run: %w", err)
		}
		nums = append(nums, v)
	}
	p := &runPlan{udp: udp, http: "http://" + args[1], t0: nums[0]}
	for i := 1; i+1 < len(nums); i += 2 {
		p.windows = append(p.windows, [2]int64{nums[i], nums[i+1]})
	}
	return p, nil
}

// run executes the open-loop schedule until the last window ends and a
// stop command arrives, handling crash and revive commands in between.
func (g *gen) run(args []string, cmds <-chan []string, seed int64) (genMsg, error) {
	p, err := parseRun(args)
	if err != nil {
		return genMsg{}, err
	}
	wins := make([]*genWindow, len(p.windows))
	for i := range wins {
		wins[i] = &genWindow{}
	}
	var httpWG sync.WaitGroup
	httpWG.Add(2)
	go func() {
		defer httpWG.Done()
		g.queryLoop(p, wins, seed)
	}()
	go func() {
		defer httpWG.Done()
		g.scrapeLoop(p, wins)
	}()

	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	end := p.end()
	var cmdErr error // the first failed command or send
	stopped := false
	u, k := 0, int64(0)
	for !stopped {
		due := p.t0 + g.sched.phase[u] + k*g.sched.interval
		if due >= end {
			// Schedule done; wait for the stop command.
			f, ok := <-cmds
			if !ok {
				stopped = true
				break
			}
			stopped, err = g.command(f)
			if err != nil && cmdErr == nil {
				cmdErr = err
			}
			continue
		}
		if wait := time.Until(time.Unix(0, due)); wait > 0 {
			timer.Reset(wait)
			select {
			case f, ok := <-cmds:
				if !timer.Stop() {
					<-timer.C
				}
				if !ok {
					stopped = true
				} else if stopped, err = g.command(f); err != nil && cmdErr == nil {
					cmdErr = err
				}
				continue
			case <-timer.C:
			}
		}
		g.mu.Lock()
		n, err := g.send(p.udp, g.sched.units[u], due, func(s *genSlot) bool { return s.crashAt == 0 || due < s.crashAt })
		g.mu.Unlock()
		if err != nil {
			cmdErr = err
			break
		}
		if wi := p.window(due); wi >= 0 && n > 0 {
			wins[wi].Beats += uint64(n)
			late := time.Now().UnixNano() - due
			wins[wi].late.add(late)
			wins[wi].LateMax = max(wins[wi].LateMax, late)
		}
		if u++; u == len(g.sched.units) {
			u, k = 0, k+1
		}
	}
	httpWG.Wait()
	if cmdErr != nil {
		return genMsg{}, cmdErr
	}
	for _, w := range wins {
		w.LateP99 = w.late.quantile(0.99)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return genMsg{
		Op: "done", Beats: g.beats, Dgrams: g.dgrams, MinPer: g.minPer, MaxPer: g.maxPer,
		Windows: wins, SinkFrames: g.sinkFrames.Load(), SinkBytes: g.sinkBytes.Load(),
	}, nil
}

// command applies one mid-run command; stop reports true for "stop".
func (g *gen) command(f []string) (stop bool, err error) {
	if len(f) == 0 {
		return false, nil
	}
	switch f[0] {
	case "stop":
		return true, nil
	case "crash", "revive":
		if len(f) != 3 {
			return false, fmt.Errorf("%s: want 2 arguments, got %q", f[0], f)
		}
		slot, err := strconv.Atoi(f[1])
		if err != nil || slot < 0 || slot >= len(g.slots) {
			return false, fmt.Errorf("%s: bad slot %q", f[0], f[1])
		}
		g.mu.Lock()
		defer g.mu.Unlock()
		if f[0] == "revive" {
			g.slots[slot] = genSlot{id: f[2], revived: true}
			return false, nil
		}
		at, err := strconv.ParseInt(f[2], 10, 64)
		if err != nil {
			return false, fmt.Errorf("crash: %w", err)
		}
		g.slots[slot].crashAt = at
		return false, nil
	}
	return false, fmt.Errorf("unexpected command %q", f[0])
}

func httpClient() *http.Client {
	return &http.Client{
		Timeout: 5 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// sleepUntil waits for the Unix-ns instant t.
func sleepUntil(t int64) {
	if d := time.Until(time.Unix(0, t)); d > 0 {
		time.Sleep(d)
	}
}

// queryLoop issues GET /v1/suspicion for seeded random live ids at the
// workload's rate on one keep-alive connection. The loop is open: each
// request has a due time, and a slow reply makes the following requests
// late, which their latency (measured from due time) includes.
func (g *gen) queryLoop(p *runPlan, wins []*genWindow, seed int64) {
	client := httpClient()
	defer client.CloseIdleConnections()
	rng := rand.New(rand.NewPCG(uint64(seed), 0x9e3779b9))
	spacing := 1e9 / g.w.queryRate
	var body bytes.Buffer
	for j := 0; ; j++ {
		due := p.t0 + int64(float64(j)*spacing)
		if due >= p.end() {
			return
		}
		slot := rng.IntN(len(g.slots))
		sleepUntil(due)
		g.mu.Lock()
		for tries := 0; !g.slots[slot].queryable() && tries < len(g.slots); tries++ {
			slot = (slot + 1) % len(g.slots)
		}
		id := g.slots[slot].id
		g.mu.Unlock()
		ok := g.query(client, p.http+"/v1/suspicion?id="+id, &body)
		if wi := p.window(due); wi >= 0 {
			if ok {
				wins[wi].Queries = append(wins[wi].Queries, float64(time.Now().UnixNano()-due))
				wins[wi].QueryDue = append(wins[wi].QueryDue, due)
			} else {
				wins[wi].QueryFail++
			}
		}
	}
}

// query reports whether the reply was a 200 carrying a finite level.
func (g *gen) query(client *http.Client, url string, body *bytes.Buffer) bool {
	resp, err := client.Get(url)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	body.Reset()
	if _, err := body.ReadFrom(resp.Body); err != nil || resp.StatusCode != http.StatusOK {
		return false
	}
	var v struct {
		Level *float64 `json:"level"`
	}
	if json.Unmarshal(body.Bytes(), &v) != nil || v.Level == nil {
		return false
	}
	l := *v.Level
	return !math.IsNaN(l) && !math.IsInf(l, 0) && l != math.MaxFloat64 && l >= 0
}

// scrapeLoop GETs /v1/metrics at the workload's cadence on its own
// keep-alive connection and parses the first scrape of each window.
func (g *gen) scrapeLoop(p *runPlan, wins []*genWindow) {
	client := httpClient()
	defer client.CloseIdleConnections()
	var body bytes.Buffer
	every := int64(scrapeEvery)
	for j := int64(0); ; j++ {
		due := p.t0 + every/4 + j*every
		if due >= p.end() {
			return
		}
		sleepUntil(due)
		err := scrape(client, p.http+"/v1/metrics", &body)
		wi := p.window(due)
		if wi < 0 {
			continue
		}
		w := wins[wi]
		if err != nil {
			w.ScrapeFail++
			continue
		}
		w.Scrapes = append(w.Scrapes, float64(time.Now().UnixNano()-due))
		if w.ScrapeParsed == 0 && w.ParseErr == "" {
			if samples, err := telemetry.ParseText(bytes.NewReader(body.Bytes())); err != nil {
				w.ParseErr = err.Error()
			} else {
				w.ScrapeParsed = len(samples)
			}
		}
	}
}

func scrape(client *http.Client, url string, body *bytes.Buffer) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body.Reset()
	if _, err := io.Copy(body, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return nil
}
