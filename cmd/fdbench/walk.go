package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"accrual/internal/clock"
	"accrual/internal/core"
	"accrual/internal/phi"
	"accrual/internal/service"
	"accrual/internal/simple"
)

// walkDetectors is the detector axis of the walk sweep: the cheapest
// evaluation (Algorithm 4) and the daemon default (φ under its normal
// model), whose per-process cost is the log-tail math.
var walkDetectors = []string{"simple", "phi"}

// walkPoint is one cell of the evaluation-plane sweep: a detector kind
// crossed with a registry size and one full-fleet read path. NsPerOp is
// one complete pass over the whole registry; NsPerProc is that divided
// by the membership.
type walkPoint struct {
	Detector    string  `json:"detector"`
	Procs       int     `json:"procs"`
	Path        string  `json:"path"`
	Shards      int     `json:"shards"`
	NsPerOp     float64 `json:"ns_per_op"`
	NsPerProc   float64 `json:"ns_per_proc"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// walkEnv records the machine a walk sweep ran on.
type walkEnv struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// walkBenchResult is the single BENCH_walk.json artifact: the full
// detector × size × path matrix in one committed file.
type walkBenchResult struct {
	Name      string      `json:"name"`
	Detectors []string    `json:"detectors"`
	Env       walkEnv     `json:"env"`
	Points    []walkPoint `json:"points"`
}

// walkMonitor registers procs processes of the given detector kind,
// each fed three heartbeats at a jittered 100 ms interval so φ carries
// a fitted estimate rather than EvalZero, then advances the clock one
// interval past the last beat: every entry holds a live eval snapshot
// whose level sits in the healthy, still-accruing range — the steady
// state the walk paths read. Large registries get the 512-shard layout
// the membership-scale guidance prescribes.
func walkMonitor(detector string, procs int) *service.Monitor {
	const interval = 100 * time.Millisecond
	shards := 64
	if procs > 100_000 {
		shards = 512
	}
	var factory service.Factory
	switch detector {
	case "phi":
		factory = func(_ string, start time.Time) core.Detector { return phi.New(start) }
	default:
		factory = func(_ string, start time.Time) core.Detector { return simple.New(start) }
	}
	clk := clock.NewManual(time.Date(2005, 3, 22, 0, 0, 0, 0, time.UTC))
	mon := service.NewMonitor(clk, factory, service.WithShardCount(shards))
	base := mon.Now()
	for i := 0; i < procs; i++ {
		id := fmt.Sprintf("proc-%07d", i)
		for seq := 1; seq <= 3; seq++ {
			jitter := time.Duration((i*7+seq*3)%11-5) * time.Millisecond
			at := base.Add(time.Duration(seq)*interval + jitter)
			if err := mon.Heartbeat(core.Heartbeat{From: id, Seq: uint64(seq), Arrived: at}); err != nil {
				panic(fmt.Sprintf("walk: heartbeat %s: %v", id, err))
			}
		}
	}
	clk.Set(base.Add(4 * interval))
	return mon
}

// walkBenchmarks returns the read-path benchmarks for one prepared
// monitor. Each path makes one full-fleet pass per op; the sink defeats
// dead-code elimination without allocating.
func walkBenchmarks(mon *service.Monitor) []struct {
	path string
	fn   func(*testing.B)
} {
	var sink atomic.Uint64
	levelFn := func(id string, lvl core.Level) { sink.Add(uint64(len(id))) }
	infoFn := func(info service.ProcessInfo) { sink.Add(uint64(len(info.ID))) }
	return []struct {
		path string
		fn   func(*testing.B)
	}{
		{"each_level", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mon.EachLevel(levelFn)
			}
		}},
		{"top_k", func(b *testing.B) {
			dst := make([]service.RankedProcess, 0, 64)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = mon.TopK(64, dst[:0])
			}
		}},
		{"each_info", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mon.EachInfo(infoFn)
			}
		}},
	}
}

// runWalk sweeps the detector kinds × registry sizes across the three
// full-fleet read paths and writes the whole matrix to BENCH_walk.json
// in outDir.
func runWalk(sizes []int, outDir string) error {
	res := walkBenchResult{
		Name:      "walk",
		Detectors: walkDetectors,
		Env: walkEnv{
			GoVersion:  runtime.Version(),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
		},
	}
	for _, det := range walkDetectors {
		for _, procs := range sizes {
			mon := walkMonitor(det, procs)
			for _, wb := range walkBenchmarks(mon) {
				r := testing.Benchmark(wb.fn)
				nsPerOp := float64(r.T.Nanoseconds()) / float64(r.N)
				pt := walkPoint{
					Detector:    det,
					Procs:       procs,
					Path:        wb.path,
					Shards:      mon.ShardCount(),
					NsPerOp:     nsPerOp,
					NsPerProc:   nsPerOp / float64(procs),
					AllocsPerOp: r.AllocsPerOp(),
					BytesPerOp:  r.AllocedBytesPerOp(),
				}
				res.Points = append(res.Points, pt)
				fmt.Printf("walk: detector=%s procs=%d path=%s shards=%d %.0f ns/op, %.2f ns/proc, %d allocs/op\n",
					pt.Detector, pt.Procs, pt.Path, pt.Shards, pt.NsPerOp, pt.NsPerProc, pt.AllocsPerOp)
			}
		}
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	path := filepath.Join(outDir, "BENCH_walk.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("walk: %d points -> %s\n", len(res.Points), path)
	return nil
}
