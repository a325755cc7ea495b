package main

import "fmt"

// Workload is one traffic mix and the server configuration it runs
// against. Every field is a fixed constant: the reference rate is never
// derived from a measured capacity, so runs of different commits offer the
// same load. It is low enough (about a tenth of what the server answers
// with many requests in flight on a 2-vCPU host) that stalls the host
// causes clear before they pile up.
type Workload struct {
	Name string // why each workload exists: README.md and BENCHMARK.json

	Engine    string // hash (μTPS-H) or tree (μTPS-T)
	Transport string // goroutine or epoll
	BudgetMiB int    // -memory-budget in MiB; 0 = unbounded
	Cold      bool   // run with -cold-dir in a fresh temporary directory

	Keys           int
	ValMin, ValMax int     // value length, uniform in [ValMin, ValMax]
	Zipf           float64 // key popularity skew; 0 = uniform
	GetPct, PutPct int     // the rest are scans
	ScanMax        int     // scan length uniform in [1, ScanMax]

	RefRate float64 // ops/s of the reference segment
}

// Fixed run parameters shared by every workload.
const (
	// conns is the number of load connections; the generator never opens
	// more than nproc and is capped at it below.
	conns = 2
	// setups is how many times a run sets up a server; setup_s is their
	// median.
	setups = 5
	// loopInflight is how many requests the closed-loop segment keeps in
	// flight over all connections. With 16 the answers the server turns
	// around set the pace. With 64 and more the throughput followed how the
	// scheduler placed generator and server threads on the two vCPUs,
	// which changes every few seconds: on hot-read its 250ms windows swung
	// between 90k and 220k ops/s within one run.
	loopInflight = 16
)

// serverFlags are the flags every workload passes to mutps-server; the
// tuner stays off because it changes the configuration mid-run.
var serverFlags = []string{"-workers", "2", "-cr", "1", "-hot", "4096"}

var workloads = []*Workload{
	{
		Name:   "hot-read",
		Engine: "hash", Transport: "goroutine",
		Keys: 100_000, ValMin: 64, ValMax: 64, Zipf: 0.99, GetPct: 95, PutPct: 5,
		RefRate: 20_000,
	},
	{
		Name:   "uniform-rw",
		Engine: "hash", Transport: "goroutine",
		Keys: 200_000, ValMin: 100, ValMax: 1000, GetPct: 50, PutPct: 50,
		RefRate: 20_000,
	},
	{
		Name:   "scan-tree",
		Engine: "tree", Transport: "epoll",
		Keys: 200_000, ValMin: 64, ValMax: 64, Zipf: 0.99, GetPct: 0, PutPct: 5, ScanMax: 99,
		RefRate: 5_000,
	},
	{
		Name:   "cold-spill",
		Engine: "hash", Transport: "goroutine", BudgetMiB: 8, Cold: true,
		Keys: 100_000, ValMin: 256, ValMax: 256, GetPct: 90, PutPct: 10,
		RefRate: 20_000,
	},
}

func findWorkload(name string) (*Workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// args returns the mutps-server command line for this workload.
func (w *Workload) args(addr, coldDir string) []string {
	a := append([]string{"-addr", addr, "-engine", w.Engine, "-transport", w.Transport}, serverFlags...)
	if w.BudgetMiB > 0 {
		a = append(a, "-memory-budget", fmt.Sprintf("%dM", w.BudgetMiB))
	}
	if coldDir != "" {
		a = append(a, "-cold-dir", coldDir)
	}
	return a
}

// ops lists the op kinds this workload issues, reads first.
func (w *Workload) ops() []uint8 {
	var k []uint8
	if w.GetPct > 0 {
		k = append(k, kindGet)
	}
	if w.PutPct > 0 {
		k = append(k, kindPut)
	}
	if w.GetPct+w.PutPct < 100 {
		k = append(k, kindScan)
	}
	return k
}

// readKind is the op reported as read_*: get, or scan on a scan workload.
func (w *Workload) readKind() uint8 {
	if w.GetPct > 0 {
		return kindGet
	}
	return kindScan
}
