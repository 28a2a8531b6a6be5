package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"accrual/internal/autotune"
	"accrual/internal/chen"
	"accrual/internal/clock"
	"accrual/internal/core"
	"accrual/internal/federation"
	"accrual/internal/service"
	"accrual/internal/telemetry"
	"accrual/internal/transport"
	"accrual/internal/transport/intern"
)

// Flag values of cmd/accruald the stack mirrors; the benchmark builds
// the stack from the same constructors with these values.
const (
	flagHistory   = 600
	flagIngestQ   = 256
	flagReadBatch = 16
	flagTuneEvery = 10 * time.Second
	flagTuneStep  = 0.25
	flagGroup     = "bench"
)

// stack is accruald's default stack, hosted in the benchmark's process:
// φ (or, on crash-churn, every kind) behind the slab registry with the
// telemetry hub and shared interner, the UDP listener, the HTTP API,
// federation to the generator's sink socket, autotune, the 600-sample
// recorder, the Algorithm-1 watcher App, and one fixed-threshold App
// per detector kind standing in for client applications. Periodic
// consumers are not started here: the benchmark calls them itself.
type stack struct {
	hub *telemetry.Hub
	mon *service.Monitor
	ln  *transport.Listener
	api *transport.API
	srv *http.Server
	fed *federation.Federation

	tuner    *autotune.Controller
	rec      *service.Recorder
	watchApp *service.App
	kindApps [numKinds]*service.App
	handler  *timedHandler

	httpAddr   string
	srvDone    chan struct{}
	watchTrans atomic.Uint64
	// sTrans counts each kind App's S-transitions of processes that had
	// not crashed (false suspicions); live tells them apart.
	sTrans [numKinds]atomic.Uint64
	live   func(id string, at time.Time) bool
}

func buildStack(w workload, o *obs, sink string, live func(string, time.Time) bool) (*stack, error) {
	s := &stack{live: live}
	profile, err := service.ParseProfile("default")
	if err != nil {
		return nil, err
	}
	if _, err := telemetry.NewQoS(telemetry.DefaultQoSHigh, telemetry.DefaultQoSLow); err != nil {
		return nil, err
	}
	s.hub = telemetry.NewHub(telemetry.WithQoSThresholds(telemetry.DefaultQoSHigh, telemetry.DefaultQoSLow))
	ids := intern.New(intern.WithOverflowCounter(&s.hub.Transport.InternOverflow))
	group := flagGroup
	s.mon = service.NewMonitor(clock.Wall{}, detectorFactory(w.interval, profile, o),
		service.WithTelemetry(s.hub),
		service.WithProfile(profile),
		service.WithInterner(ids),
		service.WithGroupFn(func(string) string { return group }),
	)
	s.fed, err = federation.New(federation.Config{
		Self:     flagGroup,
		Peers:    []string{sink},
		Monitor:  s.mon,
		Interval: federation.DefaultInterval,
		Fanout:   federation.DefaultFanout,
		TopK:     federation.DefaultTopK,
		Hub:      s.hub,
	})
	if err != nil {
		return nil, err
	}
	s.tuner, err = autotune.New(autotune.Config{
		Monitor:  s.mon,
		QoS:      s.hub.QoS(),
		Counters: &s.hub.Autotune,
		Targets:  chen.QoS{MaxDetectionTime: w.targetTD},
		Detector: "phi",
		Every:    flagTuneEvery,
		MaxStep:  flagTuneStep,
	})
	if err != nil {
		return nil, err
	}
	s.ln, err = transport.Listen("127.0.0.1:0", s.mon,
		transport.WithTelemetry(s.hub),
		transport.WithInternTable(ids),
		transport.WithDigestHandler(s.fed.HandleDigest),
		transport.WithIngestWorkers(runtime.GOMAXPROCS(0)),
		transport.WithIngestQueueCap(flagIngestQ),
		transport.WithReadBatch(flagReadBatch),
	)
	if err != nil {
		return nil, err
	}
	s.watchApp = s.mon.NewApp("accruald-log", service.AdaptivePolicy(),
		service.WithTransitionHandler(func(string, core.Transition, core.Status) { s.watchTrans.Add(1) }))
	for _, k := range w.kinds {
		s.kindApps[k] = s.mon.NewApp("bench-"+kindNames[k], service.ConstantPolicy(kindThreshold(k, w.interval)),
			service.WithTransitionHandler(func(id string, tr core.Transition, st core.Status) {
				if st == core.Suspected && s.live(id, tr.At) {
					s.sTrans[k].Add(1)
				}
			}))
	}
	s.rec = service.NewRecorder(s.mon, flagHistory)
	s.api = transport.NewAPI(s.mon,
		transport.WithAPITelemetry(s.hub),
		transport.WithTuner(s.tuner),
		transport.WithClusterView(s.fed),
		transport.WithRecorder(s.rec),
	)
	s.handler = &timedHandler{next: s.api, o: o}
	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.ln.Close()
		return nil, fmt.Errorf("http listen: %w", err)
	}
	s.httpAddr = httpLn.Addr().String()
	s.srv = &http.Server{Handler: s.handler, ReadHeaderTimeout: 5 * time.Second}
	s.srvDone = make(chan struct{})
	go func() {
		defer close(s.srvDone)
		if err := s.srv.Serve(httpLn); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Printf("http server: %v\n", err)
		}
	}()
	return s, nil
}

func (s *stack) udpAddr() string { return s.ln.Addr().String() }

// close stops the listener (joining its read loops and ingest workers)
// and the HTTP server.
func (s *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx) // a straggling keep-alive is cut by Close below
	_ = s.srv.Close()
	<-s.srvDone
	_ = s.ln.Close()
}

// timedHandler wraps the API. Traced, it times the /v1/suspicion and
// /v1/metrics handlers (server-side, excluding the network) and counts
// the metrics body; untraced it costs one atomic load per request.
type timedHandler struct {
	next http.Handler
	o    *obs

	mu           sync.Mutex
	suspicionNs  sample
	metricsNs    sample
	metricsBytes sample
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.o.tracing.Load() {
		h.next.ServeHTTP(w, r)
		return
	}
	cw := &countingWriter{ResponseWriter: w}
	start := time.Now()
	h.next.ServeHTTP(cw, r)
	d := float64(time.Since(start))
	h.mu.Lock()
	defer h.mu.Unlock()
	switch r.URL.Path {
	case "/v1/suspicion":
		h.suspicionNs = append(h.suspicionNs, d)
	case "/v1/metrics":
		h.metricsNs = append(h.metricsNs, d)
		h.metricsBytes = append(h.metricsBytes, float64(cw.n))
	}
}

func (s *stack) falseSuspicions() uint64 {
	var n uint64
	for k := range s.sTrans {
		n += s.sTrans[k].Load()
	}
	return n
}
