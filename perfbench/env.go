package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"accrual/internal/federation"
)

// envBlock records the machine and configuration a result was measured
// on, so every result file says what produced it.
func envBlock(w workload, seed int64, genGOMAXPROCS int, sink string) map[string]any {
	kinds := make([]string, len(w.kinds))
	for i, k := range w.kinds {
		kinds[i] = kindNames[k]
	}
	return map[string]any{
		"cpu_model":             cpuModel(),
		"nproc":                 runtime.NumCPU(),
		"stack_gomaxprocs":      runtime.GOMAXPROCS(0),
		"gen_gomaxprocs":        genGOMAXPROCS,
		"go_version":            runtime.Version(),
		"kernel":                readTrim("/proc/sys/kernel/osrelease"),
		"git_commit":            gitCommit(),
		"source_sha256":         sourceDigest(),
		"net_core_rmem_default": readTrim("/proc/sys/net/core/rmem_default"),
		"traffic":               "loopback (127.0.0.1), UDP heartbeats and HTTP/1.1 keep-alive",
		"seed":                  seed,
		"workload":              w.name,
		"accruald_flags": map[string]any{
			"detector":            strings.Join(kinds, ","),
			"interval":            w.interval.String(),
			"history":             flagHistory,
			"shards":              0,
			"ingest-workers":      runtime.GOMAXPROCS(0),
			"ingest-queue":        flagIngestQ,
			"read-batch":          flagReadBatch,
			"listeners":           1,
			"profile":             "default",
			"intern-max":          0,
			"qos-high":            2,
			"qos-low":             1,
			"log-transitions":     true,
			"group":               flagGroup,
			"peers":               sink,
			"federation-interval": federation.DefaultInterval.String(),
			"fanout":              federation.DefaultFanout,
			"digest-topk":         federation.DefaultTopK,
			"autotune":            true,
			"target-td":           w.targetTD.String(),
			"autotune-interval":   flagTuneEvery.String(),
			"autotune-step":       flagTuneStep,
		},
	}
}

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit is HEAD of the checkout the benchmark runs in, "none" when
// it is not a git repository (git may not look above it).
func gitCommit() string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	if wd, err := os.Getwd(); err == nil {
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	}
	out, err := cmd.Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the module's Go sources and go.mod files (path
// and content), identifying the measured code where no git metadata
// exists.
func sourceDigest() string {
	var paths []string
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		h.Write([]byte(p))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
