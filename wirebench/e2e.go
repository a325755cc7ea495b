package main

import (
	"errors"
	"fmt"
	"sort"
	"time"
)

// Run timing. A run spends 70% of --seconds in the reference
// segment and the rest in the closed-loop segment, whose first loopWarm is
// not measured.
const (
	warmUp     = time.Second            // reference-rate traffic before the reference segment
	refWindow  = 100 * time.Millisecond // one window of the reference segment
	loopWarm   = time.Second            // closed-loop traffic before its first window
	loopWindow = 250 * time.Millisecond // one window of the closed-loop segment
)

// merge concatenates the results of consecutive segments.
func merge(segs []*segment) *segment {
	m := newSegment(0, false)
	for _, s := range segs {
		for ci := range s.lat {
			for k := range s.lat[ci] {
				m.lat[ci][k] = append(m.lat[ci][k], s.lat[ci][k]...)
			}
		}
		m.late = append(m.late, s.late...)
		m.sent += s.sent
	}
	return m
}

func newSegment(expect int, traced bool) *segment {
	s := &segment{late: make([]int64, 0, expect), traced: traced}
	return s
}

// setUp starts the server and preloads it, returning the ready pair and
// the seconds it took from spawning the process to the last preload ack.
func setUp(cfg config, tmp string) (*server, *loadgen, float64, error) {
	t0 := time.Now()
	srv, err := startServer(cfg.server, cfg.w, tmp, cfg.procs)
	if err != nil {
		return nil, nil, 0, err
	}
	d, err := dialLoadgen(srv.addr, cfg.w, newStream(cfg.w, cfg.seed), cfg.seed, cfg.procs)
	if err == nil {
		if err = d.preload(cfg.seed ^ 0x10ad); err != nil {
			err = wrapWrong(err, d)
			d.close()
		}
	}
	if err != nil {
		srv.kill()
		return nil, nil, 0, err
	}
	return srv, d, time.Since(t0).Seconds(), nil
}

// wrapWrong marks err as a wrong result when the generator recorded one.
func wrapWrong(err error, d *loadgen) error {
	if bad := d.err(); bad != nil {
		return fmt.Errorf("%w: %v", errWrong, bad)
	}
	return err
}

// runE2E is the untraced run: set up `setups` times (setup_s is the
// median), warm up, measure the reference segment at the workload's fixed
// rate, then measure the closed-loop throughput.
func runE2E(cfg config, res *result, tmp string) error {
	w := cfg.w
	var setupS []float64
	var srv *server
	var d *loadgen
	for i := 0; i < setups; i++ {
		s, dr, sec, err := setUp(cfg, tmp)
		if err != nil {
			return err
		}
		setupS = append(setupS, sec)
		if i < setups-1 {
			dr.close()
			s.kill()
			continue
		}
		srv, d = s, dr
	}
	defer srv.stop()
	defer d.close()
	res.set("setup_s", median(setupS), "s")
	fmt.Printf("setup: %d set-ups, seconds %.3v\n", setups, setupS)

	// The reference segment runs as short windows back to back. A window
	// in which the generator stalled, or the hypervisor ran another guest
	// on this VM's CPUs, measured the host, not the server: the latencies
	// come from the undisturbed windows alone, unless fewer than a quarter
	// are undisturbed.
	refDur := time.Duration(cfg.seconds) * time.Second * 7 / 10
	n := max(1, int(refDur/refWindow))
	d.pace(w.RefRate, warmUp, newSegment(0, false), 0, nil)
	all := make([]*segment, n)
	for i := range all {
		seg := newSegment(int(w.RefRate*refWindow.Seconds()), false)
		s0 := stealTicks()
		d.pace(w.RefRate, refWindow, seg, 0, nil)
		seg.steal = stealShare(s0, stealTicks(), refWindow)
		all[i] = seg
	}
	for _, seg := range all {
		if !d.drain(seg, 10*time.Second) {
			return wrapWrong(errors.New("reference segment did not drain within 10s"), d)
		}
	}
	if err := d.err(); err != nil {
		return wrapWrong(err, d)
	}
	ns := make([]noise, n)
	clean := 0
	for i, seg := range all {
		seg.lateMax = percentile(append([]int64(nil), seg.late...), 1)
		ns[i] = seg.noise
		if !seg.disturbed() {
			clean++
		}
	}
	var wins []*segment
	for _, i := range pickWindows(ns, n/4) {
		wins = append(wins, all[i])
	}
	k := w.readKind()
	for i, seg := range all {
		fmt.Printf("reference window %3d: %s p50 %s p99 %s, generator late %s at most, steal %.1f%%, disturbed %v\n",
			i, kindNames[k], fmtLat(percentile(seg.latencies(k), 0.5)), fmtLat(percentile(seg.latencies(k), 0.99)),
			fmtLat(seg.lateMax), 100*seg.steal, seg.disturbed())
	}
	res.set("loadgen.disturbed_windows", float64(n-clean), "count")
	if clean < n/4 {
		res.Valid = false
		res.Invalid = fmt.Sprintf("only %d of %d reference windows were undisturbed by the host", clean, n)
	}
	whole := merge(all)
	res.Attempted, res.Failed = whole.sent, whole.failures()
	if err := latencyMetrics(res, w, wins); err != nil {
		return err
	}
	res.set("loadgen.late_p99_us", float64(percentile(merge(wins).late, 0.99))/1e3, "us")

	// Memory is read before the closed-loop segment, whose queues grow
	// the server's buffers.
	st, err := d.stats()
	if err != nil {
		return err
	}
	res.set("mem_bytes_per_user_byte", st["mutps_proc_rss_bytes"]/d.userBytes(), "ratio")

	loopDur := time.Duration(cfg.seconds)*time.Second - refDur - loopWarm
	rate, sent, f, err := d.closedLoop(loopInflight, loopWarm, max(loopDur, 3*loopWindow))
	res.Attempted += sent
	res.Failed += f
	if err != nil {
		return wrapWrong(err, d)
	}
	if err := d.err(); err != nil {
		return wrapWrong(err, d)
	}
	res.set("throughput_kops", rate/1e3, "kops")
	res.set("loadgen.error_ratio", float64(res.Failed)/float64(max(res.Attempted, 1)), "ratio")
	return nil
}

// pickWindows returns the indices, in order, of the undisturbed windows.
// If fewer than least are undisturbed, the disturbed windows the host took
// least from fill up to least.
func pickWindows(ns []noise, least int) []int {
	var out, rest []int
	for i, n := range ns {
		if n.disturbed() {
			rest = append(rest, i)
		} else {
			out = append(out, i)
		}
	}
	sort.SliceStable(rest, func(i, j int) bool {
		a, b := ns[rest[i]], ns[rest[j]]
		if a.steal != b.steal {
			return a.steal < b.steal
		}
		return a.lateMax < b.lateMax
	})
	for _, i := range rest {
		if len(out) >= least {
			break
		}
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// latencyMetrics reports P50/P99 per op kind the workload issues, as the
// median over the reference windows, and the read_*/put_* names of
// BENCHMARK.json. A percentile that lands on a failed request is +∞,
// which no JSON number carries: the run fails.
func latencyMetrics(res *result, w *Workload, wins []*segment) error {
	for _, k := range w.ops() {
		for _, p := range []struct {
			name string
			q    float64
		}{{"p50", 0.50}, {"p99", 0.99}} {
			v, n := windowPercentile(wins, k, p.q)
			if v == failed {
				return fmt.Errorf("%s %s is +inf: requests failed", kindNames[k], p.name)
			}
			res.setN(kindNames[k]+"_"+p.name+"_us", float64(v)/1e3, "us", n)
			if k == w.readKind() {
				res.setN("read_"+p.name+"_us", float64(v)/1e3, "us", n)
			}
		}
	}
	return nil
}

// closedLoop keeps inflight requests outstanding over the connections,
// sending the next as soon as one is answered, for warm (not measured) and
// then dur. It returns the median, over the loopWindow windows the host
// took least from, of each window's answered requests per second, and the
// requests attempted and failed. It gives up when no answer comes for 5s.
func (d *loadgen) closedLoop(inflight int, warm, dur time.Duration) (rate float64, attempted, failedN int, err error) {
	seg := &segment{slots: make(chan struct{}, inflight)}
	type mark struct {
		t, done, steal int64
	}
	var marks []mark
	stuck, stop := make(chan struct{}), make(chan struct{})
	defer close(stop)
	go func() {
		tk := time.NewTicker(5 * time.Second)
		defer tk.Stop()
		last := int64(-1)
		for {
			select {
			case <-stop:
				return
			case <-tk.C:
			}
			n := seg.done.Load()
			if n == last {
				close(stuck)
				return
			}
			last = n
		}
	}()
	ci := 0
	start := d.now()
	end, next := start+int64(warm+dur), start+int64(warm)
	for t := start; t < end; t = d.now() {
		if t >= next {
			marks = append(marks, mark{t, seg.done.Load(), stealTicks()})
			next += int64(loopWindow)
		}
		select {
		case seg.slots <- struct{}{}:
		default:
			d.flush()
			select {
			case seg.slots <- struct{}{}:
			case <-stuck:
				return 0, seg.sent, seg.failures(), fmt.Errorf("no answer for 5s with %d requests in flight", inflight)
			}
		}
		d.send(ci, d.s.next(), d.now(), seg)
		ci = (ci + 1) % len(d.cs)
	}
	marks = append(marks, mark{d.now(), seg.done.Load(), stealTicks()})
	d.flush()
	if !d.drain(seg, 10*time.Second) {
		return 0, seg.sent, seg.failures(), errors.New("closed-loop segment did not drain within 10s")
	}
	var all []float64
	var ns []noise
	for i := 1; i < len(marks); i++ {
		a, b := marks[i-1], marks[i]
		dt := time.Duration(b.t - a.t)
		all = append(all, float64(b.done-a.done)/dt.Seconds())
		ns = append(ns, noise{steal: stealShare(a.steal, b.steal, dt)})
	}
	var rates []float64
	for _, i := range pickWindows(ns, len(ns)/4) {
		fmt.Printf("closed-loop window %d: %.0f ops/s, steal %.1f%%\n", i, all[i], 100*ns[i].steal)
		rates = append(rates, all[i])
	}
	if len(rates) == 0 {
		return 0, seg.sent, seg.failures(), errors.New("closed-loop segment too short for one window")
	}
	return median(rates), seg.sent, seg.failures(), nil
}

func fmtLat(v int64) string {
	if v == failed {
		return "+inf"
	}
	return fmt.Sprintf("%.0fus", float64(v)/1e3)
}
