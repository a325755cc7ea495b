package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"mutps/internal/btree"
	"mutps/internal/coldtier"
	"mutps/internal/cuckoo"
	"mutps/internal/hotset"
	"mutps/internal/kvcore"
	"mutps/internal/ring"
	"mutps/internal/rpc"
	"mutps/internal/seqitem"
	"mutps/internal/workload"
)

// Isolated probe sizes: each runs for well under a second.
const (
	probeOps      = 1 << 20 // lookups per map/tree/hot-set probe
	probeRPC      = 200_000 // messages through the receive ring
	probeBatches  = 100_000 // 8-request batches through the SPSC ring
	probeScans    = 20_000
	probeColdOps  = 20_000
	probeColdSize = 256

	// The lifecycle probe writes cold-spill's data set (100k × 256 B,
	// 25.6 MB) through an 8 MiB budget with a cold tier, then reads.
	probeTierKeys   = 100_000
	probeTierBudget = 8 << 20
)

// probeSink keeps the probed reads from being optimized away.
var probeSink uint64

// probes times each layer's public functions in isolation with the
// workload's key count, key distribution and value sizes.
func probes(cfg config, res *result, tmp string) error {
	w := cfg.w
	s := newStream(w, cfg.seed)
	keys := make([]uint64, 1<<16)
	for i := range keys {
		keys[i] = uint64(s.key()) + 1
	}
	perOp := func(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }

	// rpc: one producer Sends, one worker Polls and Completes.
	{
		srv := rpc.NewServer(1024, 1, 1)
		done := make(chan struct{})
		go func() {
			defer close(done)
			for n := 0; n < probeRPC; {
				m, ok, _ := srv.Poll(0)
				if !ok {
					runtime.Gosched()
					continue
				}
				m.Call().Complete()
				n++
			}
		}()
		var fifo []*rpc.Call
		t0 := time.Now()
		for i := 0; i < probeRPC; i++ {
			c, err := srv.Send(rpc.Message{Op: workload.OpGet, Key: keys[i&(len(keys)-1)]})
			if err != nil {
				return fmt.Errorf("rpc probe: %w", err)
			}
			fifo = append(fifo, c)
			if len(fifo) == 64 || i == probeRPC-1 {
				for _, c := range fifo {
					c.Wait()
					c.Release()
				}
				fifo = fifo[:0]
			}
		}
		<-done
		res.set("rpc.send_poll_ns", perOp(time.Since(t0), probeRPC), "ns")
		srv.Close()
	}

	// ring: one producer pushes 8-request batches, one consumer drains.
	{
		q := ring.NewSPSC(64)
		batch := make([]ring.Request, 8)
		done := make(chan struct{})
		go func() {
			defer close(done)
			for n := 0; n < probeBatches; {
				if q.Peek() == nil {
					runtime.Gosched()
					continue
				}
				q.Commit()
				n++
			}
		}()
		t0 := time.Now()
		for i := 0; i < probeBatches; {
			if q.Push(batch) {
				i++
			} else {
				runtime.Gosched()
			}
		}
		<-done
		res.set("ring.pushpop_ns", perOp(time.Since(t0), probeBatches*8), "ns")
	}

	// hotset: a hash view over the 4096 most popular keys, probed with the
	// workload's key stream.
	{
		var ents []hotset.Entry
		for _, id := range s.hottest(4096) {
			key := uint64(id) + 1
			ents = append(ents, hotset.Entry{Key: key, Item: seqitem.New(encodeValue(nil, cfg.seed, key, 0, w.ValMin))})
		}
		v := hotset.NewHashView(ents)
		hits := 0
		t0 := time.Now()
		for i := 0; i < probeOps; i++ {
			if _, ok := v.Lookup(keys[i&(len(keys)-1)]); ok {
				hits++
			}
		}
		res.set("hotset.lookup_ns", perOp(time.Since(t0), probeOps), "ns")
		fmt.Printf("probe hotset: %.3f of probed keys are in the top 4096\n", float64(hits)/probeOps)
	}

	// cuckoo and btree at the workload's key count.
	{
		m := cuckoo.New[uint64](w.Keys)
		t := btree.New[uint64]()
		for k := 1; k <= w.Keys; k++ {
			m.Put(uint64(k), uint64(k))
			t.Put(uint64(k), uint64(k))
		}
		var sink uint64
		t0 := time.Now()
		for i := 0; i < probeOps; i++ {
			v, _ := m.Get(keys[i&(len(keys)-1)])
			sink += v
		}
		res.set("cuckoo.get_ns", perOp(time.Since(t0), probeOps), "ns")
		t0 = time.Now()
		for i := 0; i < probeOps; i++ {
			m.Put(keys[i&(len(keys)-1)], uint64(i))
		}
		res.set("cuckoo.put_ns", perOp(time.Since(t0), probeOps), "ns")
		t0 = time.Now()
		for i := 0; i < probeOps; i++ {
			v, _ := t.Get(keys[i&(len(keys)-1)])
			sink += v
		}
		res.set("btree.get_ns", perOp(time.Since(t0), probeOps), "ns")
		scanMax := w.ScanMax
		if scanMax == 0 {
			scanMax = 99
		}
		items := 0
		t0 = time.Now()
		for i := 0; i < probeScans; i++ {
			items += t.Scan(keys[i&(len(keys)-1)], 1+i%scanMax, func(k, v uint64) bool {
				sink += v
				return true
			})
		}
		res.set("btree.scan_ns_per_item", perOp(time.Since(t0), max(items, 1)), "ns")
		probeSink = sink
	}

	// coldtier: a value log in a temporary directory, 256-byte values.
	{
		dir, err := os.MkdirTemp(tmp, "coldprobe-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		l, err := coldtier.Open(coldtier.Options{Dir: dir, CompactInterval: -1, CheckpointInterval: -1})
		if err != nil {
			return fmt.Errorf("coldtier probe: %w", err)
		}
		defer l.Close()
		val := make([]byte, probeColdSize)
		t0 := time.Now()
		for i := 1; i <= probeColdOps; i++ {
			if _, err := l.Put(uint64(i), 0, val); err != nil {
				return fmt.Errorf("coldtier probe: %w", err)
			}
		}
		res.set("coldtier.put_us", perOp(time.Since(t0), probeColdOps)/1e3, "us")
		buf := make([]byte, 0, probeColdSize)
		t0 = time.Now()
		for i := 0; i < probeColdOps; i++ {
			if _, _, _, ok := l.Get(uint64(1+int(keys[i&(len(keys)-1)])%probeColdOps), buf, 0); !ok {
				return fmt.Errorf("coldtier probe: key missing")
			}
		}
		res.set("coldtier.get_us", perOp(time.Since(t0), probeColdOps)/1e3, "us")
	}
	if !w.Cold {
		return tierProbe(cfg, res, tmp, keys)
	}
	return nil
}

// tierProbe measures the lifecycle evictor and the cold tier on a
// workload whose server has neither: an in-process store with an 8 MiB
// budget and a cold directory takes 25.6 MB of puts, then a get for each
// probed key, and its own counters give the lifecycle.* and coldtier.*
// metrics.
func tierProbe(cfg config, res *result, tmp string, keys []uint64) error {
	dir, err := os.MkdirTemp(tmp, "tierprobe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := kvcore.Open(kvcore.Config{Workers: 2, CRWorkers: 1, MemoryBudget: probeTierBudget, ColdDir: dir})
	if err != nil {
		return fmt.Errorf("lifecycle probe: %w", err)
	}
	defer st.Close()
	before := st.Metrics().SnapshotMap()
	var windows []map[string]float64
	var fifo []*rpc.Call
	for k := 1; k <= probeTierKeys; k++ {
		c, err := st.PutAsync(uint64(k), encodeValue(nil, cfg.seed, uint64(k), 0, probeColdSize))
		if err != nil {
			return fmt.Errorf("lifecycle probe: %w", err)
		}
		if fifo = append(fifo, c); len(fifo) == 256 {
			for _, c := range fifo {
				c.Wait()
				if c.Err != nil {
					return fmt.Errorf("lifecycle probe: put: %w", c.Err)
				}
				c.Release()
			}
			fifo = fifo[:0]
			windows = append(windows, st.Metrics().SnapshotMap())
		}
	}
	for _, c := range fifo {
		c.Wait()
		c.Release()
	}
	// Let the evictor bring live bytes under the budget (it lags a
	// pipelined writer), so the gets read a spilled steady state.
	for deadline := time.Now().Add(2 * time.Second); st.BudgetedBytes() > probeTierBudget && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
	}
	for i := 0; i < probeColdOps; i++ {
		key := 1 + keys[i&(len(keys)-1)]%probeTierKeys
		v, ok, err := st.Get(key)
		if err != nil || !ok {
			return fmt.Errorf("lifecycle probe: key %d: found=%v err=%v", key, ok, err)
		}
		if _, err := decodeValue(v, cfg.seed, key); err != nil {
			return fmt.Errorf("%w: lifecycle probe: %v", errWrong, err)
		}
	}
	after := st.Metrics().SnapshotMap()
	tierCounters(res, before, after, windows, float64(probeTierKeys+probeColdOps)/1e3, probeColdOps,
		"isolated probe: in-process store, 8 MiB budget, 100k x 256 B puts then gets")
	return nil
}
