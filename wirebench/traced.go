package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mutps/internal/kvcore"
	"mutps/internal/rpc"
	"mutps/internal/workload"
)

// statsWindow is how often the traced run samples the server's gauges.
const statsWindow = 100 * time.Millisecond

// runTraced is the traced run. Part 1 drives a child server at the
// reference rate twice, untraced then with client-side spans, reading the
// server's counters before and after and sampling its gauges every
// window; the difference of the two segments is the tracing overhead.
// Part 2 replays the same requests at the same rate into an in-process
// kvcore.Store opened with the server's configuration, with spans around
// each async call and each hot-set refresh. Part 3 times each layer's
// public functions in isolation.
func runTraced(cfg config, res *result, tmp string) error {
	w := cfg.w
	segDur := time.Duration(cfg.seconds) * time.Second * 3 / 10
	srv, d, _, err := setUp(cfg, tmp)
	if err != nil {
		return err
	}
	part1 := func() (*segment, error) {
		defer srv.stop()
		defer d.close()
		d.pace(w.RefRate, warmUp, newSegment(0, false), 0, nil)
		plain := newSegment(int(w.RefRate*segDur.Seconds()), false)
		d.pace(w.RefRate, segDur, plain, 0, nil)
		d.drain(plain, 10*time.Second)
		before, err := d.stats()
		if err != nil {
			return nil, err
		}
		traced := newSegment(int(w.RefRate*segDur.Seconds()), true)
		var windows []map[string]float64
		d.pace(w.RefRate, segDur, traced, statsWindow, &windows)
		if !d.drain(traced, 10*time.Second) {
			return nil, fmt.Errorf("traced segment did not drain within 10s")
		}
		after, err := d.stats()
		if err != nil {
			return nil, err
		}
		if err := d.err(); err != nil {
			return nil, wrapWrong(err, d)
		}
		res.Attempted = plain.sent + traced.sent
		res.Failed = plain.failures() + traced.failures()
		overhead(res, w, plain, traced)
		serverCounters(res, w, before, after, windows, d.userBytes())
		late := append([]int64(nil), traced.late...)
		res.set("loadgen.late_p99_us", float64(percentile(late, 0.99))/1e3, "us")
		res.set("loadgen.late_max_us", float64(percentile(late, 1))/1e3, "us")
		res.set("loadgen.error_ratio", float64(res.Failed)/float64(max(res.Attempted, 1)), "ratio")
		return traced, nil
	}
	traced, err := part1()
	if err != nil {
		return err
	}
	spans := traced.allSpans()
	var rtt []float64
	for _, s := range spans {
		rtt = append(rtt, float64(s.end-s.start)/1e3)
	}
	res.setN("netserver.rtt_mean_us", mean(rtt), "us", len(rtt))

	kvSpans, refresh, err := inProcess(cfg, res, tmp, segDur)
	if err != nil {
		return err
	}
	selfTime(res, spans, kvSpans)
	if err := probes(cfg, res, tmp); err != nil {
		return err
	}
	path := filepath.Join(cfg.root, ".bench_build", "spans", w.Name+".csv.gz")
	if err := writeSpans(path, spans, kvSpans, refresh); err != nil {
		return err
	}
	fmt.Printf("spans: %d netserver, %d kvcore, %d hotset.refresh written to %s\n",
		len(spans), len(kvSpans), len(refresh), path)
	return nil
}

// overhead reports traced − untraced on the read latency percentiles.
func overhead(res *result, w *Workload, plain, traced *segment) {
	k := w.readKind()
	for _, p := range []struct {
		name string
		q    float64
	}{{"p50", 0.5}, {"p99", 0.99}} {
		a, b := percentile(plain.latencies(k), p.q), percentile(traced.latencies(k), p.q)
		if a == failed || b == failed {
			res.note("trace.read_"+p.name+"_overhead_us", "us", "a percentile was +inf")
			continue
		}
		res.set("trace.read_"+p.name+"_overhead_us", float64(b-a)/1e3, "us")
	}
}

// serverCounters derives the stats2-based per-layer metrics from the
// counters before and after the traced segment and the gauges sampled
// during it. A counter the server does not export reads as 0.
func serverCounters(res *result, w *Workload, before, after map[string]float64, windows []map[string]float64, userBytes float64) {
	delta := func(n string) float64 { return after[n] - before[n] }
	kops := delta("ops") / 1e3
	gets := delta(`mutps_ops_total{op="get"}`)
	puts := delta(`mutps_ops_total{op="put"}`)
	maxOf := func(f func(m map[string]float64) float64) float64 {
		v := 0.0
		for _, m := range windows {
			v = max(v, f(m))
		}
		return v
	}
	var depth []float64
	for _, m := range windows {
		depth = append(depth, m["mutps_rx_queue_depth"])
	}

	res.set("netserver.flush_coalesce_mean", ratio(delta("mutps_net_flush_coalesce_sum"), delta("mutps_net_flush_coalesce_count")), "responses")
	res.set("netserver.writev_batch_mean", ratio(delta("mutps_net_writev_batch_sum"), delta("mutps_net_writev_batch_count")), "conns")
	if w.Transport != "epoll" {
		res.Metrics["netserver.writev_batch_mean"] = metric{Unit: "conns", Note: "0: only the epoll transport batches writev"}
	}
	res.setN("rpc.rx_depth_mean", mean(depth), "requests", len(depth))
	res.set("rpc.backlogged_per_kop", ratio(delta("mutps_rpc_backlogged_total"), kops), "1/kop")
	res.set("kvcore.cr_hit_ratio", ratio(delta("cr_hits"), delta("ops")), "ratio")
	res.set("kvcore.forwarded_ratio", ratio(delta("forwarded"), delta("ops")), "ratio")
	res.set("hotset.size", after["mutps_hotset_size"], "items")
	res.set("hotset.vetoed", delta("mutps_hotset_vetoed_total"), "count")
	res.set("ring.batch_mean", ratio(delta("mutps_crmr_batch_size_sum"), delta("mutps_crmr_batch_size_count")), "requests")
	res.set("ring.push_stalls_per_kop", ratio(delta("mutps_ring_push_stalls_total"), kops), "1/kop")
	res.set("ring.pop_stalls_per_kop", ratio(delta("mutps_ring_pop_stalls_total"), kops), "1/kop")
	res.set("arena.live_bytes_per_user_byte", ratio(after["mutps_arena_live_bytes"], userBytes), "ratio")
	res.set("arena.fallbacks_per_kop", ratio(delta("mutps_arena_fallbacks_total"), kops), "1/kop")
	res.set("seqitem.retired_per_put", ratio(delta("mutps_items_retired_total"), puts), "ratio")
	res.set("epoch.retired_pending_max", maxOf(func(m map[string]float64) float64 { return m["mutps_items_retired_pending"] }), "items")
	res.set("go.gc_cycles_per_kop", ratio(delta("mutps_go_gc_cycles_total"), kops), "1/kop")
	res.set("go.gc_pause_p99_us", after[`mutps_go_gc_pause_seconds{q="0.99"}`]*1e6, "us")
	if w.Cold {
		tierCounters(res, before, after, windows, kops, gets, "")
	}
}

// tierCounters derives the lifecycle and coldtier metrics from counters
// before and after a measured span and gauges sampled during it; note,
// when set, says where they came from.
func tierCounters(res *result, before, after map[string]float64, windows []map[string]float64, kops, gets float64, note string) {
	delta := func(n string) float64 { return after[n] - before[n] }
	over := 0.0
	for _, m := range windows {
		if b := m["mutps_memory_budget_bytes"]; b > 0 {
			over = max(over, m["mutps_arena_live_bytes"]-b)
		}
	}
	for _, m := range []struct {
		name, unit string
		v          float64
	}{
		{"lifecycle.evictions_per_kop", "1/kop", ratio(delta("mutps_evictions_total"), kops)},
		{"lifecycle.evict_passes", "count", delta("mutps_evict_passes_total")},
		{"lifecycle.over_budget_bytes_max", "bytes", over},
		{"coldtier.reads_per_get", "ratio", ratio(delta("mutps_cold_reads_total"), gets)},
		{"coldtier.promotes_per_kop", "1/kop", ratio(delta("mutps_cold_promotes_total"), kops)},
		{"coldtier.write_amp", "ratio", ratio(after["mutps_cold_log_bytes"], after["mutps_cold_spilled_bytes_total"])},
		{"coldtier.dead_ratio", "ratio", ratio(after["mutps_cold_dead_bytes"], after["mutps_cold_log_bytes"])},
		{"coldtier.compactions", "count", after["mutps_cold_compactions_total"]},
	} {
		res.Metrics[m.name] = metric{Value: m.v, Unit: m.unit, Note: note}
	}
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// selfTime reports the client-observed round trip minus the in-process
// kvcore time at the same rate and mix. Spans from outside the program
// have no true children, so this is a difference of two means.
func selfTime(res *result, net, kv []span) {
	var kvSum, kvN [4]float64
	for _, s := range kv {
		kvSum[s.kind] += float64(s.end - s.start)
		kvN[s.kind]++
	}
	for _, k := range []uint8{kindGet, kindPut, kindScan} {
		name := "kvcore." + kindNames[k] + "_mean_us"
		if kvN[k] == 0 {
			res.note(name, "us", "0: the workload issues no "+kindNames[k])
			continue
		}
		res.setN(name, kvSum[k]/kvN[k]/1e3, "us", int(kvN[k]))
	}
	var rtt, store float64
	for _, s := range net {
		rtt += float64(s.end - s.start)
		if kvN[s.kind] > 0 {
			store += kvSum[s.kind] / kvN[s.kind]
		}
	}
	if len(net) > 0 {
		res.Metrics["netserver.self_mean_us"] = metric{
			Value: (rtt - store) / float64(len(net)) / 1e3, Unit: "us", N: len(net),
			Note: "rtt mean - kvcore mean at the same mix: a difference of means, not a child span",
		}
	}
}

// inFlight is one in-process request awaiting completion.
type inFlight struct {
	call       *rpc.Call
	o          op
	due, start int64
}

// inProcess opens a kvcore.Store with the server's configuration,
// preloads it, and replays the workload's requests at the reference rate
// through the async facade, refreshing the hot set every 100ms as the
// server's refresher does.
func inProcess(cfg config, res *result, tmp string, dur time.Duration) (kv, refresh []span, err error) {
	w := cfg.w
	kc := kvcore.Config{Workers: 2, CRWorkers: 1, HotItems: 4096}
	if w.Engine == "tree" {
		kc.Engine = kvcore.Tree
	}
	kc.MemoryBudget = int64(w.BudgetMiB) << 20
	if w.Cold {
		if kc.ColdDir, err = os.MkdirTemp(tmp, "cold-inproc-"); err != nil {
			return nil, nil, err
		}
	}
	st, err := kvcore.Open(kc)
	if err != nil {
		return nil, nil, err
	}
	defer st.Close()
	ck := checker{w: w, seed: cfg.seed, s: newStream(w, cfg.seed)}

	// Pipelined preload, 256 puts in flight.
	r := rng{s: cfg.seed ^ 0x10ad}
	var fifo []*rpc.Call
	waitOne := func() error {
		c := fifo[0]
		fifo = fifo[1:]
		c.Wait()
		e := c.Err
		c.Release()
		return e
	}
	for id := 0; id < w.Keys; id++ {
		key := uint64(id) + 1
		c, err := st.PutAsync(key, encodeValue(nil, cfg.seed, key, 0, w.drawSize(&r)))
		if err != nil {
			return nil, nil, fmt.Errorf("in-process preload: %w", err)
		}
		fifo = append(fifo, c)
		if len(fifo) >= 256 {
			if err := waitOne(); err != nil {
				return nil, nil, fmt.Errorf("in-process preload: %w", err)
			}
		}
	}
	for len(fifo) > 0 {
		if err := waitOne(); err != nil {
			return nil, nil, fmt.Errorf("in-process preload: %w", err)
		}
	}

	base := time.Now()
	now := func() int64 { return int64(time.Since(base)) }
	stop := make(chan struct{})
	refDone := make(chan []span)
	go func() {
		var out []span
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				refDone <- out
				return
			case <-t.C:
				s := now()
				st.RefreshHotSet()
				out = append(out, span{kind: kindStats, due: s, start: s, end: now()})
			}
		}
	}()

	ch := make(chan inFlight, maxInflight)
	compDone := make(chan []span)
	var bad error
	// The same tick pacing as the wire generator: a warm-up second, then
	// the measured window.
	start := now()
	measureFrom := start + int64(warmUp)
	go func() {
		var live []inFlight
		var spans []span
		for {
			if len(live) == 0 {
				x, ok := <-ch
				if !ok {
					compDone <- spans
					return
				}
				live = append(live, x)
			}
		drain:
			for {
				select {
				case x, ok := <-ch:
					if !ok {
						break drain
					}
					live = append(live, x)
				default:
					break drain
				}
			}
			kept := live[:0]
			for _, x := range live {
				if !x.call.Done() {
					kept = append(kept, x)
					continue
				}
				end := now()
				if err := ck.verifyCall(x); err != nil && bad == nil {
					bad = err
				}
				x.call.Release()
				if x.due >= measureFrom {
					spans = append(spans, span{kind: x.o.kind, due: x.due, start: x.start, end: end})
				}
			}
			progressed := len(kept) < len(live)
			live = kept
			if !progressed {
				runtime.Gosched()
			}
		}
	}()

	var failures int
	paceTicks(now, w.RefRate, warmUp+dur, func(due int64) {
		o := ck.s.next()
		key := uint64(o.id) + 1
		var c *rpc.Call
		var err error
		ts := now()
		switch o.kind {
		case kindGet:
			c, err = st.GetAsync(key, make([]byte, 0, w.ValMax))
		case kindPut:
			c, err = st.PutAsync(key, encodeValue(nil, cfg.seed, key, o.ver, o.size))
		case kindScan:
			c, err = st.SendAsync(rpc.Message{Op: workload.OpScan, Key: key, ScanCount: o.count})
		}
		if err != nil {
			failures++
			return
		}
		ch <- inFlight{call: c, o: o, due: due, start: ts}
	}, func(int64) {})
	close(ch)
	kv = <-compDone
	close(stop)
	refresh = <-refDone
	if bad != nil {
		return nil, nil, fmt.Errorf("%w: in-process: %v", errWrong, bad)
	}
	res.Failed += failures
	var ms []float64
	for _, s := range refresh {
		ms = append(ms, float64(s.end-s.start)/1e6)
	}
	res.setN("hotset.refresh_ms", mean(ms), "ms", len(ms))
	return kv, refresh, nil
}

// verifyCall checks a completed in-process call.
func (c *checker) verifyCall(x inFlight) error {
	key := uint64(x.o.id) + 1
	if x.call.Err != nil {
		return fmt.Errorf("key %d: %s failed: %v", key, kindNames[x.o.kind], x.call.Err)
	}
	switch x.o.kind {
	case kindGet:
		if !x.call.Found {
			return fmt.Errorf("key %d: get found nothing, but the key was preloaded and never deleted", key)
		}
		return c.checkValue(x.call.Value, key)
	case kindScan:
		return c.checkScanKV(key, x.o.count, x.call.ScanKeys, x.call.ScanVals)
	}
	return nil
}

// writeSpans writes every span as gzip-compressed CSV; see README.md.
func writeSpans(path string, net, kv, refresh []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	z := gzip.NewWriter(f)
	b := bufio.NewWriter(z)
	fmt.Fprintln(b, "layer,id,op,due_ns,start_ns,end_ns")
	for _, l := range []struct {
		name  string
		spans []span
	}{{"netserver", net}, {"kvcore", kv}, {"hotset.refresh", refresh}} {
		for i, s := range l.spans {
			id := s.id
			if id == 0 {
				id = uint64(i + 1)
			}
			opName := kindNames[s.kind]
			if s.kind == kindStats {
				opName = "refresh"
			}
			fmt.Fprintf(b, "%s,%d,%s,%d,%d,%d\n", l.name, id, opName, s.due, s.start, s.end)
		}
	}
	if err := b.Flush(); err != nil {
		return err
	}
	if err := z.Close(); err != nil {
		return err
	}
	return f.Close()
}
