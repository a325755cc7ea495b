package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"net"
	"os"
	"regexp"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

func TestFailedRequestIsInfiniteInPercentiles(t *testing.T) {
	lat := []int64{100, 200, 300, failed}
	if got := percentile(append([]int64(nil), lat...), 0.5); got != 200 {
		t.Fatalf("p50 = %d, want 200", got)
	}
	if got := percentile(append([]int64(nil), lat...), 0.99); got != failed {
		t.Fatalf("p99 = %d, want +inf (failed)", got)
	}
	// One failure in a hundred requests is exactly the P99.
	var h []int64
	for i := 0; i < 99; i++ {
		h = append(h, 10)
	}
	if got := percentile(append(h, failed), 0.99); got != 10 {
		t.Fatalf("p99 with 1%% failed = %d, want 10", got)
	}
	if got := percentile(append(h, failed, failed), 0.99); got != failed {
		t.Fatalf("p99 with 2 of 101 failed = %d, want +inf", got)
	}
	seg := newSegment(0, false)
	seg.lat[0][kindGet] = []int64{5, failed, 7}
	if n := seg.failures(); n != 1 {
		t.Fatalf("failures = %d, want 1", n)
	}
	if got, _ := windowPercentile([]*segment{seg}, kindGet, 0.99); got != failed {
		t.Fatalf("window p99 = %d, want +inf", got)
	}
}

func TestWindowPercentileIsMedianOfWindows(t *testing.T) {
	var wins []*segment
	for i := 0; i < 5; i++ {
		seg := newSegment(0, false)
		v := int64(1000)
		if i == 2 {
			v = 50_000 // one noisy window
		}
		for j := 0; j < minPerWindow; j++ {
			seg.lat[j%conns][kindGet] = append(seg.lat[j%conns][kindGet], v)
		}
		wins = append(wins, seg)
	}
	got, n := windowPercentile(wins, kindGet, 0.99)
	if got != 1000 || n != 5*minPerWindow {
		t.Fatalf("windowPercentile = %d (n=%d), want 1000 (n=%d)", got, n, 5*minPerWindow)
	}
	// Too few samples for three pools: the quantile of all samples.
	small := newSegment(0, false)
	small.lat[0][kindPut] = []int64{1, 2, 3, 4}
	if got, n := windowPercentile([]*segment{small}, kindPut, 0.5); got != 2 || n != 4 {
		t.Fatalf("pooled p50 = %d (n=%d), want 2 (n=4)", got, n)
	}
}

func TestValueCodecRoundTripAndCorruption(t *testing.T) {
	const seed = 42
	// A value needs filler bytes to guard its version: the workloads'
	// values are at least 64 bytes.
	if v, err := decodeValue(encodeValue(nil, seed, 7, 3, 16), seed, 7); err != nil || v != 3 {
		t.Fatalf("header-only value: %d, %v", v, err)
	}
	for _, size := range []int{32, 64, 100, 255, 1000} {
		v := encodeValue(nil, seed, 7, 3, size)
		if len(v) != size {
			t.Fatalf("size %d: encoded %d bytes", size, len(v))
		}
		ver, err := decodeValue(v, seed, 7)
		if err != nil || ver != 3 {
			t.Fatalf("size %d: decode = %d, %v; want 3, nil", size, ver, err)
		}
		for i := range v {
			bad := append([]byte(nil), v...)
			bad[i] ^= 0x40
			if _, err := decodeValue(bad, seed, 7); err == nil {
				t.Fatalf("size %d: flipped byte %d not detected", size, i)
			}
		}
		if _, err := decodeValue(v[:size-1], seed, 7); err == nil {
			t.Fatalf("size %d: truncated value not detected", size)
		}
		if _, err := decodeValue(v, seed, 8); err == nil {
			t.Fatalf("size %d: value of key 7 accepted for key 8", size)
		}
		if _, err := decodeValue(v, seed+1, 7); err == nil && size > valHeader {
			t.Fatalf("size %d: value accepted under another seed", size)
		}
	}
}

func TestCheckerRejectsWrongResults(t *testing.T) {
	w := &Workload{Keys: 100, ValMin: 32, ValMax: 32, PutPct: 100}
	s := newStream(w, 1)
	c := checker{w: w, seed: 1, s: s}
	scan := func(keys ...uint64) []byte {
		b := binary.LittleEndian.AppendUint32(nil, uint32(len(keys)))
		for _, k := range keys {
			v := encodeValue(nil, 1, k, 0, 32)
			b = binary.LittleEndian.AppendUint64(b, k)
			b = binary.LittleEndian.AppendUint32(b, uint32(len(v)))
			b = append(b, v...)
		}
		return b
	}
	if err := c.checkScan(scan(10, 11, 12), 10, 3); err != nil {
		t.Fatalf("good scan rejected: %v", err)
	}
	if err := c.checkScan(scan(99, 100), 99, 5); err != nil {
		t.Fatalf("scan at the end of the key space rejected: %v", err)
	}
	for name, body := range map[string][]byte{
		"out of order":  scan(10, 12, 11),
		"gap":           scan(10, 11, 13),
		"before start":  scan(9, 10, 11),
		"too many":      scan(10, 11, 12, 13),
		"too few":       scan(10, 11),
		"short payload": scan(10, 11, 12)[:40],
	} {
		if err := c.checkScan(body, 10, 3); err == nil {
			t.Errorf("%s: scan accepted", name)
		}
	}
	// A version newer than any put issued for the key is a wrong value.
	if err := c.checkValue(encodeValue(nil, 1, 5, 1, 32), 5); err == nil {
		t.Fatal("version 1 accepted before any put was issued")
	}
	for s.issued(4) == 0 {
		s.next()
	}
	if err := c.checkValue(encodeValue(nil, 1, 5, 1, 32), 5); err != nil {
		t.Fatalf("version 1 rejected after its put was issued: %v", err)
	}
}

func TestPickWindowsSkipsDisturbed(t *testing.T) {
	late := int64(lateBound) + 1
	ns := []noise{
		{}, {steal: 0.2}, {}, {lateMax: late}, {steal: 0.05}, {}, {steal: 0.5},
	}
	if got := pickWindows(ns, 3); !slices.Equal(got, []int{0, 2, 5}) {
		t.Fatalf("undisturbed windows: got %v, want [0 2 5]", got)
	}
	// Too few undisturbed: the late window (no steal) and then the least
	// stolen fill up, in time order.
	if got := pickWindows(ns, 5); !slices.Equal(got, []int{0, 2, 3, 4, 5}) {
		t.Fatalf("filled up: got %v, want [0 2 3 4 5]", got)
	}
	if got := pickWindows(ns[:2], 0); !slices.Equal(got, []int{0}) {
		t.Fatalf("no minimum: got %v, want [0]", got)
	}
}

func TestStealShare(t *testing.T) {
	if got := stealShare(-1, 10, time.Second); got != 0 {
		t.Fatalf("steal not reported: share %v, want 0", got)
	}
	// 10 ticks of 10ms in one second of every CPU.
	want := 0.1 / float64(runtime.NumCPU())
	if got := stealShare(100, 110, time.Second); math.Abs(got-want) > 1e-12 {
		t.Fatalf("share %v, want %v", got, want)
	}
}

// TestClosedLoopCountsAnswers drives the fake server with a fixed number
// of requests in flight: every request is answered and checked, and the
// reported rate is the answers per second of the measured windows.
func TestClosedLoopCountsAnswers(t *testing.T) {
	w := &Workload{Name: "fake", Keys: 50, ValMin: 32, ValMax: 32, GetPct: 100, RefRate: 2000}
	const seed = 9
	addr, served := fakeServer(t, seed)
	d, err := dialLoadgen(addr, w, newStream(w, seed), seed, 2)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	rate, attempted, failedN, err := d.closedLoop(8, 100*time.Millisecond, 2*loopWindow)
	elapsed := time.Since(start)
	d.close()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.err(); err != nil {
		t.Fatal(err)
	}
	if failedN != 0 || int64(attempted) != served.Load() {
		t.Fatalf("%d attempted, %d failed, %d served", attempted, failedN, served.Load())
	}
	if avg := float64(attempted) / elapsed.Seconds(); rate <= 0 || rate > 2*avg {
		t.Fatalf("rate %.0f/s, but %d answers in %v", rate, attempted, elapsed)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(data, n=4) on the same inputs.
	for _, c := range []struct {
		in        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1}, 0, 3, 6},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
	} {
		q1, m, q3 := quartiles(c.in)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

func TestJudgeVerdicts(t *testing.T) {
	runs := func(vs ...float64) []seeded {
		var s []seeded
		for i, v := range vs {
			s = append(s, seeded{uint64(i), v})
		}
		return s
	}
	base := runs(100, 102, 98, 101, 99, 100, 103, 97, 100, 101)
	if v := judge(base, runs(101, 99, 100, 102, 98, 100, 101, 99, 103, 97), true, 0.2); v.verdict != "no worse" {
		t.Errorf("same distribution: %s", v.verdict)
	}
	if v := judge(base, runs(80, 81, 79, 80, 82, 78, 80, 81, 79, 80), true, 0.2); v.verdict != "improved" {
		t.Errorf("clearly lower latency: %s", v.verdict)
	}
	if v := judge(base, runs(130, 131, 129, 130, 132, 128, 130, 131, 129, 130), true, 0.2); v.verdict[:5] != "worse" {
		t.Errorf("30%% higher latency: %s", v.verdict)
	}
	wide := runs(50, 150, 60, 140, 70, 130, 80, 120, 90, 110)
	if v := judge(wide, runs(100, 100, 100, 100, 100, 100, 100, 100, 100, 100), true, 0.2); v.verdict[:10] != "unresolved" {
		t.Errorf("spread wider than the bound: %s", v.verdict)
	}
}

// TestLatencyFromDueTime drives a fake server that stalls once for 60ms:
// the requests due during the stall must carry it in their latency, as
// an open-loop generator timing from due time sees it.
func TestLatencyFromDueTime(t *testing.T) {
	w := &Workload{Name: "fake", Keys: 50, ValMin: 32, ValMax: 32, GetPct: 100, RefRate: 2000}
	const seed = 9
	addr, _ := fakeServer(t, seed)
	d, err := dialLoadgen(addr, w, newStream(w, seed), seed, 2)
	if err != nil {
		t.Fatal(err)
	}
	seg := newSegment(0, false)
	d.pace(w.RefRate, 400*time.Millisecond, seg, 0, nil)
	if !d.drain(seg, 5*time.Second) {
		t.Fatal("fake server did not answer")
	}
	d.close()
	if err := d.err(); err != nil {
		t.Fatal(err)
	}
	lat := seg.latencies(kindGet)
	if len(lat) != seg.sent || seg.sent != 800 {
		t.Fatalf("%d latencies for %d requests, want 800", len(lat), seg.sent)
	}
	slow := 0
	for _, l := range lat {
		if l > int64(20*time.Millisecond) {
			slow++
		}
	}
	// 60ms at 2000/s is 120 requests; the ~80 due in the stall's first
	// 40ms wait more than 20ms for it.
	if slow < 50 {
		t.Fatalf("only %d requests show the stall; latency is not taken from due time", slow)
	}
	if max := percentile(lat, 1); max < int64(50*time.Millisecond) {
		t.Fatalf("max latency %v, want at least the 50ms left of the stall", time.Duration(max))
	}
}

// fakeServer listens for connections served by fakeServe until the test
// ends, and returns its address and the count of requests it answered.
func fakeServer(t *testing.T, seed uint64) (string, *atomic.Int64) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var served, stallUntil atomic.Int64
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go fakeServe(c, seed, &served, &stallUntil)
		}
	}()
	return ln.Addr().String(), &served
}

// fakeServe answers every frame like mutps-server would for a store
// holding version 0 of every key. Its 200th request, on any connection,
// stalls every connection for 60ms.
func fakeServe(c net.Conn, seed uint64, served, stallUntil *atomic.Int64) {
	defer c.Close()
	r := bufio.NewReader(c)
	wr := bufio.NewWriter(c)
	var hdr [13]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return
		}
		payload := make([]byte, binary.LittleEndian.Uint32(hdr[9:]))
		if _, err := io.ReadFull(r, payload); err != nil {
			return
		}
		if served.Add(1) == 200 {
			stallUntil.Store(time.Now().Add(60 * time.Millisecond).UnixNano())
		}
		if wait := time.Until(time.Unix(0, stallUntil.Load())); wait > 0 {
			wr.Flush()
			time.Sleep(wait)
		}
		var body []byte
		if hdr[0] == kindGet {
			body = encodeValue(nil, seed, binary.LittleEndian.Uint64(hdr[1:]), 0, 32)
		}
		var rh [5]byte
		binary.LittleEndian.PutUint32(rh[1:], uint32(len(body)))
		wr.Write(rh[:])
		wr.Write(body)
		if r.Buffered() == 0 {
			if err := wr.Flush(); err != nil {
				return
			}
		}
	}
}

// TestBenchmarkJSONMatches checks BENCHMARK.json against the benchmark's
// own workload and metric lists and the names the design fixed.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated name %q", n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: bad unit %q", n, u)
		}
	}
	var wl []string
	for _, w := range spec.Workloads {
		check(w.Name, "")
		wl = append(wl, w.Name)
		if _, err := findWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
	// scan-tree and cold-spill stay runnable but are not in BENCHMARK.json:
	// some of their metrics spread more than their bounds across seeds.
	if want := []string{"hot-read", "uniform-rw"}; !slices.Equal(wl, want) {
		t.Errorf("workloads %v, want %v", wl, want)
	}
	var e2e, layer []string
	for _, m := range spec.EndToEnd {
		check(m.Name, m.Unit)
		e2e = append(e2e, m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %v better %q", m.Name, m.Bound, m.Better)
		}
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower") {
			t.Errorf("setup_s must be in s, lower better")
		}
	}
	for _, m := range spec.PerLayer {
		check(m.Name, m.Unit)
		layer = append(layer, m.Name)
	}
	if !slices.Equal(e2e, e2eNames) {
		t.Errorf("end_to_end %v, want %v", e2e, e2eNames)
	}
	if !slices.Equal(layer, layerNames) {
		t.Errorf("per_layer %v, want %v", layer, layerNames)
	}
	for _, n := range []string{"throughput_kops", "mem_bytes_per_user_byte", "setup_s",
		"kvcore.cr_hit_ratio", "coldtier.reads_per_get", "lifecycle.evictions_per_kop",
		"netserver.self_mean_us", "loadgen.late_p99_us", "loadgen.error_ratio"} {
		if !seen[n] {
			t.Errorf("metric %s missing", n)
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 || len(spec.Paths) != 1 || spec.Paths[0] != "wirebench" {
		t.Errorf("run_seconds %d paths %v", spec.RunSeconds, spec.Paths)
	}
}
