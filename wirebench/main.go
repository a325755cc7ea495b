// Command wirebench is the repository's benchmark: it starts the real
// mutps-server as a child process, drives it over TCP with an open-loop
// generator, checks every response, and prints end-to-end metrics (or,
// with -trace 1, per-layer metrics) by name with their units. The last
// line of standard output is one JSON object with the run's result.
//
//	wirebench -workload hot-read -seed 1 -seconds 16 -trace 0
//	wirebench compare runs-a.jsonl runs-b.jsonl
//
// See README.md in this directory for the workloads, metrics and formats.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`    // samples behind a percentile or mean
	Note  string  `json:"note,omitempty"` // why a value is absent or derived
}

// result is everything one run reports. The full record goes to -record;
// the last stdout line carries the subset named in BENCHMARK.json.
type result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Trace     bool              `json:"trace"`
	Valid     bool              `json:"valid"`
	Invalid   string            `json:"invalid,omitempty"`
	Facts     facts             `json:"facts"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) setN(name string, v float64, unit string, n int) {
	r.Metrics[name] = metric{Value: v, Unit: unit, N: n}
}

func (r *result) note(name, unit, why string) {
	r.Metrics[name] = metric{Unit: unit, Note: why}
}

// Names reported on the last line: end-to-end metrics with -trace 0,
// per-layer metrics with -trace 1. They match BENCHMARK.json.
var e2eNames = []string{
	"read_p50_us", "read_p99_us", "put_p50_us", "put_p99_us",
	"throughput_kops", "mem_bytes_per_user_byte", "setup_s",
}

var layerNames = []string{
	"netserver.rtt_mean_us", "netserver.self_mean_us",
	"netserver.flush_coalesce_mean", "netserver.writev_batch_mean",
	"rpc.send_poll_ns", "rpc.rx_depth_mean", "rpc.backlogged_per_kop",
	"kvcore.get_mean_us", "kvcore.put_mean_us", "kvcore.scan_mean_us",
	"kvcore.cr_hit_ratio", "kvcore.forwarded_ratio",
	"hotset.lookup_ns", "hotset.refresh_ms", "hotset.size", "hotset.vetoed",
	"ring.pushpop_ns", "ring.batch_mean", "ring.push_stalls_per_kop", "ring.pop_stalls_per_kop",
	"cuckoo.get_ns", "cuckoo.put_ns", "btree.get_ns", "btree.scan_ns_per_item",
	"arena.live_bytes_per_user_byte", "arena.fallbacks_per_kop",
	"seqitem.retired_per_put", "epoch.retired_pending_max",
	"go.gc_cycles_per_kop", "go.gc_pause_p99_us",
	"lifecycle.evictions_per_kop", "lifecycle.evict_passes", "lifecycle.over_budget_bytes_max",
	"coldtier.reads_per_get", "coldtier.promotes_per_kop", "coldtier.write_amp",
	"coldtier.dead_ratio", "coldtier.compactions", "coldtier.get_us", "coldtier.put_us",
	"loadgen.late_p99_us", "loadgen.late_max_us", "loadgen.error_ratio",
	"trace.read_p50_overhead_us", "trace.read_p99_overhead_us",
}

type config struct {
	w       *Workload
	seed    uint64
	seconds int
	trace   bool
	root    string
	server  string
	record  string
	procs   int // GOMAXPROCS of both processes, and the connection count
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "wirebench compare:", err)
			os.Exit(2)
		}
		return
	}
	name := flag.String("workload", "", "workload name (hot-read, uniform-rw, scan-tree, cold-spill)")
	seed := flag.Uint64("seed", 1, "input seed: the same seed generates the same requests")
	seconds := flag.Int("seconds", 40, "measured seconds per run (reference segment, then closed loop)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run with per-layer metrics")
	root := flag.String("root", ".", "repository checkout the server was built from")
	server := flag.String("server", "", "mutps-server binary (default <root>/.bench_build/mutps-server)")
	record := flag.String("record", "", "append the run's full JSON record to this file (input of compare)")
	flag.Parse()

	w, err := findWorkload(*name)
	if err != nil {
		fatal(err)
	}
	if *seconds < 1 {
		fatal(errors.New("-seconds must be at least 1"))
	}
	cfg := config{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, root: *root,
		server: *server, record: *record}
	if cfg.server == "" {
		cfg.server = filepath.Join(cfg.root, ".bench_build", "mutps-server")
	}
	if _, err := os.Stat(cfg.server); err != nil {
		fatal(fmt.Errorf("server binary: %w", err))
	}
	// One connection and one P per CPU, at most conns: the generator must
	// not outnumber the cores the server's spinning workers need.
	cfg.procs = min(runtime.NumCPU(), conns)
	runtime.GOMAXPROCS(cfg.procs)
	// Collect the generator's own garbage rarely: a GC cycle takes CPU
	// from the pacer on a host with no core to spare.
	debug.SetGCPercent(400)

	res := &result{Workload: w.Name, Seed: cfg.seed, Trace: cfg.trace, Valid: true, Metrics: map[string]metric{}}
	res.Facts = gatherFacts(cfg)
	fmt.Printf("wirebench %s seed=%d trace=%v seconds=%d\n", w.Name, cfg.seed, cfg.trace, cfg.seconds)
	printFacts(res.Facts)

	tmp, err := runDir(cfg.root)
	if err != nil {
		fatal(err)
	}
	if cfg.trace {
		err = runTraced(cfg, res, tmp)
	} else {
		err = runE2E(cfg, res, tmp)
	}
	os.RemoveAll(tmp)
	report(cfg, res, err)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wirebench:", err)
	os.Exit(2)
}

// report prints every metric, writes the record, and prints the final
// JSON line. A wrong result exits 1 and any other failure 2. An invalid
// run (the generator too often late to measure the server) still prints
// its result, but its record is marked invalid and compare skips it.
func report(cfg config, res *result, runErr error) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		line := fmt.Sprintf("metric %-34s %14.4f %s", n, m.Value, m.Unit)
		if m.N > 0 {
			line += fmt.Sprintf(" n=%d", m.N)
		}
		if m.Note != "" {
			line += "  (" + m.Note + ")"
		}
		fmt.Println(line)
	}
	if runErr == nil && !res.Valid {
		fmt.Println("run INVALID:", res.Invalid)
	}
	if cfg.record != "" && runErr == nil {
		if err := appendRecord(cfg.record, res); err != nil {
			fmt.Fprintln(os.Stderr, "wirebench: record:", err)
		}
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "wirebench: FAILED:", runErr)
		if errors.Is(runErr, errWrong) {
			out := map[string]any{"correct": false, "attempted": max(res.Attempted, 1), "failed": res.Failed, "metrics": map[string]any{}}
			b, _ := json.Marshal(out)
			fmt.Println(string(b))
			os.Exit(1)
		}
		os.Exit(2)
	}
	want := e2eNames
	if cfg.trace {
		want = layerNames
	}
	ms := map[string]map[string]any{}
	for _, n := range want {
		m, ok := res.Metrics[n]
		if !ok {
			fmt.Fprintln(os.Stderr, "wirebench: metric not produced:", n)
			os.Exit(2)
		}
		ms[n] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	b, err := json.Marshal(map[string]any{
		"correct": true, "attempted": max(res.Attempted, 1), "failed": res.Failed, "metrics": ms,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

// errWrong wraps every wrong-result error: the server answered, but with
// a value, order or absence the workload rules out.
var errWrong = errors.New("wrong result")

func appendRecord(path string, res *result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
