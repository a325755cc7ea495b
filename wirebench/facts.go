package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// facts describe the host and build a run measured.
type facts struct {
	NProc           int     `json:"nproc"`
	BenchGOMAXPROCS int     `json:"bench_gomaxprocs"`
	ServerGOMAXPROC int     `json:"server_gomaxprocs"`
	SleepQuantumUs  float64 `json:"sleep50us_median_us"` // median wall time of time.Sleep(50µs)
	GoVersion       string  `json:"go_version"`
	Commit          string  `json:"commit"`
	SrcSHA256       string  `json:"src_sha256"` // over the checkout's .go and go.mod files
	ServerFlags     string  `json:"server_flags"`
	Conns           int     `json:"conns"`
	RefRate         float64 `json:"ref_rate_ops"`
	LoopInflight    int     `json:"loop_inflight"`
	LateBoundUs     float64 `json:"late_bound_us"`
	StealBound      float64 `json:"steal_bound"`
}

func gatherFacts(cfg config) facts {
	f := facts{
		NProc:           runtime.NumCPU(),
		BenchGOMAXPROCS: runtime.GOMAXPROCS(0),
		ServerGOMAXPROC: cfg.procs,
		SleepQuantumUs:  sleepQuantum(),
		GoVersion:       runtime.Version(),
		Commit:          "unknown (not a git checkout)",
		SrcSHA256:       srcHash(cfg.root),
		ServerFlags:     strings.Join(cfg.w.args("127.0.0.1:PORT", coldPlaceholder(cfg.w)), " "),
		Conns:           cfg.procs,
		RefRate:         cfg.w.RefRate,
		LoopInflight:    loopInflight,
		LateBoundUs:     float64(lateBound) / 1e3,
		StealBound:      stealBound,
	}
	if out, err := exec.Command("git", "-C", cfg.root, "rev-parse", "HEAD").Output(); err == nil {
		f.Commit = strings.TrimSpace(string(out))
	}
	return f
}

func coldPlaceholder(w *Workload) string {
	if w.Cold {
		return "<tmp>"
	}
	return ""
}

func printFacts(f facts) {
	fmt.Printf("fact nproc=%d bench_gomaxprocs=%d server_gomaxprocs=%d conns=%d sleep50us_median_us=%.1f go=%s\n",
		f.NProc, f.BenchGOMAXPROCS, f.ServerGOMAXPROC, f.Conns, f.SleepQuantumUs, f.GoVersion)
	fmt.Printf("fact commit=%s src_sha256=%s\n", f.Commit, f.SrcSHA256)
	fmt.Printf("fact server_flags=%q ref_rate=%.0f ops/s loop_inflight=%d late_bound=%.0fus steal_bound=%.2f\n",
		f.ServerFlags, f.RefRate, f.LoopInflight, f.LateBoundUs, f.StealBound)
}

// sleepQuantum measures the host's timer granularity: the median wall
// time of 21 sleeps of 50µs, in µs.
func sleepQuantum() float64 {
	var d []float64
	for i := 0; i < 21; i++ {
		t := time.Now()
		time.Sleep(50 * time.Microsecond)
		d = append(d, float64(time.Since(t))/1e3)
	}
	return median(d)
}

// srcHash identifies the source the server was built from when the
// checkout carries no git metadata.
func srcHash(root string) string {
	var files []string
	filepath.WalkDir(root, func(p string, e fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if e.IsDir() && strings.HasPrefix(e.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if !e.IsDir() && (strings.HasSuffix(p, ".go") || e.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
