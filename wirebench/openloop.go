package main

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Wire protocol (internal/netserver): a request is op(1) key(8) len(4)
// payload; a response is status(1) len(4) body, in request order per
// connection. The benchmark speaks it directly, so what it measures does
// not change when the program's own client package does.
const (
	opStats2 = 5

	statusFound      = 0
	statusNotFound   = 1
	statusError      = 2
	statusBacklogged = 3

	kindStats = 4 // an in-band stats2 request; carries no latency
)

// failed marks a request that got no valid answer: it sorts above every
// latency, so it counts as +∞ in every percentile.
const failed = math.MaxInt64

// rec is one request in flight, queued on its connection in send order.
type rec struct {
	op    op
	due   int64 // ns since the generator's base: when the request was due
	start int64 // ns since base: when the sender wrote it
	seg   *segment
	id    uint64 // request id, for spans
	stats chan<- map[string]float64
}

// span is one traced request as the client saw it.
type span struct {
	id              uint64
	kind            uint8
	due, start, end int64
}

// segment collects the results of the requests due in one time window.
// Each connection's reader appends only to its own slots, and the sender
// alone writes late, so no lock is needed; pending orders the readers'
// writes before the generator reads them.
type segment struct {
	lat     [conns][4][]int64 // per connection, per op kind: ns from due, or failed
	spans   [conns][]span
	late    []int64
	traced  bool
	pending atomic.Int64
	sent    int
	noise   // what the host did to the window, once it has been sent

	// A closed-loop segment (closedLoop) holds one slot per request in
	// flight; each answer frees one and counts in done.
	slots chan struct{}
	done  atomic.Int64
}

// wconn is one load connection.
type wconn struct {
	c    net.Conn
	w    *bufio.Writer
	pend chan rec // in-flight requests; the capacity bounds the backlog
	dead atomic.Bool
}

// loadgen runs an open-loop load against one server over conns
// connections: requests are sent when due, whatever the server's state,
// and timed from their due time.
type loadgen struct {
	checker
	base  time.Time
	cs    []*wconn
	rd    sync.WaitGroup
	sizes []int32 // latest issued value length per key (sender-owned)
	next  uint64  // next request id
	buf   []byte
	errMu sync.Mutex
	bad   error // first wrong result; fails the run
}

// maxInflight bounds each connection's queue of unanswered requests; a
// full queue stalls the sender, which then shows up as lateness.
const maxInflight = 1 << 15

func dialLoadgen(addr string, w *Workload, s *stream, seed uint64, n int) (*loadgen, error) {
	d := &loadgen{checker: checker{w: w, s: s, seed: seed}, base: time.Now(), sizes: make([]int32, w.Keys)}
	for i := 0; i < n; i++ {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			d.close()
			return nil, fmt.Errorf("dial %s: %w", addr, err)
		}
		wc := &wconn{c: c, w: bufio.NewWriterSize(c, 64<<10), pend: make(chan rec, maxInflight)}
		d.cs = append(d.cs, wc)
		d.rd.Add(1)
		go d.readLoop(i, wc)
	}
	return d, nil
}

// close stops the readers after every queued request is answered, its
// connection fails, or 10s pass, and closes the connections.
func (d *loadgen) close() {
	for _, c := range d.cs {
		close(c.pend)
		c.c.SetReadDeadline(time.Now().Add(10 * time.Second))
	}
	d.rd.Wait()
	for _, c := range d.cs {
		c.c.Close()
	}
	d.cs = nil
}

func (d *loadgen) now() int64 { return int64(time.Since(d.base)) }

func (d *loadgen) fail(err error) {
	d.errMu.Lock()
	if d.bad == nil {
		d.bad = err
	}
	d.errMu.Unlock()
}

func (d *loadgen) err() error {
	d.errMu.Lock()
	defer d.errMu.Unlock()
	return d.bad
}

// send writes one request on connection ci and queues its record.
func (d *loadgen) send(ci int, o op, due int64, seg *segment) {
	c := d.cs[ci]
	d.next++
	r := rec{op: o, due: due, seg: seg, id: d.next}
	var payload []byte
	key := uint64(o.id) + 1
	wireOp := o.kind
	switch o.kind {
	case kindPut:
		d.buf = encodeValue(d.buf[:0], d.seed, key, o.ver, o.size)
		payload = d.buf
		d.sizes[o.id] = int32(len(payload))
	case kindScan:
		payload = binary.LittleEndian.AppendUint32(d.buf[:0], uint32(o.count))
	case kindStats:
		wireOp, key = opStats2, 0
	}
	seg.pending.Add(1)
	seg.sent++
	r.start = d.now()
	if seg.late != nil && o.kind != kindStats {
		seg.late = append(seg.late, r.start-due)
	}
	c.pend <- r // on a failed connection the reader fails it
	var hdr [13]byte
	hdr[0] = wireOp
	binary.LittleEndian.PutUint64(hdr[1:9], key)
	binary.LittleEndian.PutUint32(hdr[9:13], uint32(len(payload)))
	c.w.Write(hdr[:])
	c.w.Write(payload) // a write error is sticky and surfaces at flush
}

func (d *loadgen) flush() {
	for _, c := range d.cs {
		if err := c.w.Flush(); err != nil && !c.dead.Swap(true) {
			c.c.Close() // fails the reader, which fails every queued request
		}
	}
}

// readLoop matches responses to queued requests in order.
func (d *loadgen) readLoop(ci int, c *wconn) {
	defer d.rd.Done()
	r := bufio.NewReaderSize(c.c, 64<<10)
	var body []byte
	var rerr error
	for q := range c.pend {
		if rerr != nil {
			d.finish(ci, q, 0, nil, rerr)
			continue
		}
		var hdr [5]byte
		if _, rerr = io.ReadFull(r, hdr[:]); rerr == nil {
			n := binary.LittleEndian.Uint32(hdr[1:5])
			if cap(body) < int(n) {
				body = make([]byte, n)
			}
			body = body[:n]
			_, rerr = io.ReadFull(r, body)
		}
		if rerr != nil {
			c.dead.Store(true)
			c.c.Close()
			d.finish(ci, q, 0, nil, rerr)
			continue
		}
		d.finish(ci, q, hdr[0], body, nil)
	}
}

// finish records one answered (or failed) request.
func (d *loadgen) finish(ci int, q rec, status byte, body []byte, err error) {
	end := d.now()
	seg := q.seg
	defer seg.pending.Add(-1)
	if seg.slots != nil {
		defer func() {
			seg.done.Add(1)
			<-seg.slots
		}()
	}
	if q.op.kind == kindStats {
		var m map[string]float64
		if err == nil && status == statusFound {
			m, _ = decodeStats2(body) // nil on a malformed body: the caller fails
		}
		q.stats <- m
		return
	}
	lat := end - q.due
	if err != nil || status == statusError || status == statusBacklogged {
		lat = failed
	} else if verr := d.verify(q.op, status, body); verr != nil {
		d.fail(verr)
		lat = failed
	}
	seg.lat[ci][q.op.kind] = append(seg.lat[ci][q.op.kind], lat)
	if seg.traced {
		seg.spans[ci] = append(seg.spans[ci], span{id: q.id, kind: q.op.kind, due: q.due, start: q.start, end: end})
	}
}

// verify checks one successful response against what was written.
func (c *checker) verify(o op, status byte, body []byte) error {
	key := uint64(o.id) + 1
	switch o.kind {
	case kindPut:
		if status != statusFound {
			return fmt.Errorf("key %d: put answered with status %d", key, status)
		}
	case kindGet:
		if status == statusNotFound {
			return fmt.Errorf("key %d: get found nothing, but the key was preloaded and never deleted", key)
		}
		if status != statusFound {
			return fmt.Errorf("key %d: get answered with status %d", key, status)
		}
		return c.checkValue(body, key)
	case kindScan:
		if status != statusFound {
			return fmt.Errorf("scan from key %d answered with status %d", key, status)
		}
		return c.checkScan(body, key, o.count)
	}
	return nil
}

// checker verifies responses against what the stream generated.
type checker struct {
	w    *Workload
	seed uint64
	s    *stream
}

// checkValue verifies that val was written for key, by a put already issued.
func (c *checker) checkValue(val []byte, key uint64) error {
	ver, err := decodeValue(val, c.seed, key)
	if err != nil {
		return err
	}
	if latest := c.s.issued(int(key - 1)); ver > latest {
		return fmt.Errorf("key %d: read version %d, but the latest put issued wrote version %d", key, ver, latest)
	}
	return nil
}

// checkScan parses a wire scan response and checks its entries.
func (c *checker) checkScan(body []byte, start uint64, count int) error {
	if len(body) < 4 {
		return fmt.Errorf("scan from key %d: short response", start)
	}
	n := int(binary.LittleEndian.Uint32(body))
	body = body[4:]
	if n > count {
		return fmt.Errorf("scan from key %d: %d entries returned, %d requested", start, n, count)
	}
	keys := make([]uint64, n)
	vals := make([][]byte, n)
	for i := 0; i < n; i++ {
		if len(body) < 12 {
			return fmt.Errorf("scan from key %d: truncated entry %d", start, i)
		}
		keys[i] = binary.LittleEndian.Uint64(body)
		vl := int(binary.LittleEndian.Uint32(body[8:]))
		body = body[12:]
		if len(body) < vl {
			return fmt.Errorf("scan from key %d: truncated value of key %d", start, keys[i])
		}
		vals[i], body = body[:vl], body[vl:]
	}
	return c.checkScanKV(start, count, keys, vals)
}

// checkScanKV checks scan entries: at most count, keys ascending from
// start, every value well formed. Every key in [1, Keys] exists and none
// is deleted, so the entries must be exactly the keys following start.
func (c *checker) checkScanKV(start uint64, count int, keys []uint64, vals [][]byte) error {
	n := len(keys)
	if n > count {
		return fmt.Errorf("scan from key %d: %d entries returned, %d requested", start, n, count)
	}
	if want := min(count, c.w.Keys-int(start)+1); n != want {
		return fmt.Errorf("scan from key %d: %d entries returned, want %d", start, n, want)
	}
	for i, k := range keys {
		if k < start || (i > 0 && k <= keys[i-1]) {
			return fmt.Errorf("scan from key %d: key %d out of order at entry %d", start, k, i)
		}
		if k != start+uint64(i) {
			return fmt.Errorf("scan from key %d: entry %d is key %d, key %d is missing", start, i, k, start+uint64(i))
		}
		if err := c.checkValue(vals[i], k); err != nil {
			return fmt.Errorf("scan from key %d: %w", start, err)
		}
	}
	return nil
}

// decodeStats2 parses a stats2 body: count(4), then per entry
// name-length(2) name value(8, float64 bits).
func decodeStats2(body []byte) (map[string]float64, error) {
	if len(body) < 4 {
		return nil, errors.New("short stats2 body")
	}
	n := binary.LittleEndian.Uint32(body)
	body = body[4:]
	m := make(map[string]float64, n)
	for i := uint32(0); i < n; i++ {
		if len(body) < 2 {
			return nil, errors.New("truncated stats2 entry")
		}
		l := int(binary.LittleEndian.Uint16(body))
		if len(body) < 2+l+8 {
			return nil, errors.New("truncated stats2 entry")
		}
		m[string(body[2:2+l])] = math.Float64frombits(binary.LittleEndian.Uint64(body[2+l:]))
		body = body[2+l+8:]
	}
	return m, nil
}

// stats reads the server's counters in band on the first connection.
func (d *loadgen) stats() (map[string]float64, error) {
	ch := make(chan map[string]float64, 1)
	d.sendStats(newSegment(0, false), ch)
	d.flush()
	m := <-ch
	if m == nil {
		return nil, errors.New("stats2 request failed or returned a malformed body")
	}
	return m, nil
}

func (d *loadgen) sendStats(seg *segment, ch chan map[string]float64) {
	c := d.cs[0]
	if c.dead.Load() {
		ch <- nil
		return
	}
	seg.pending.Add(1)
	d.next++
	c.pend <- rec{op: op{kind: kindStats}, seg: seg, id: d.next, stats: ch}
	var hdr [13]byte
	hdr[0] = opStats2
	c.w.Write(hdr[:])
}

// preload writes version 0 of every key as fast as the connections
// carry it (pipelined, not paced) and waits for every acknowledgement.
func (d *loadgen) preload(sizeSeed uint64) error {
	seg := &segment{}
	r := rng{s: sizeSeed}
	for id := 0; id < d.w.Keys; id++ {
		d.send(id%len(d.cs), op{kind: kindPut, id: id, size: d.w.drawSize(&r)}, d.now(), seg)
	}
	d.flush()
	if !d.drain(seg, 60*time.Second) {
		return errors.New("preload did not complete within 60s")
	}
	if n := seg.failures(); n > 0 {
		return fmt.Errorf("preload: %d of %d puts failed", n, d.w.Keys)
	}
	return d.err()
}

// tick is the generator's pacing period. Wake-ups land on a fixed 1ms
// grid, so every request waits for its tick by 0-1ms, the same in every
// run, and the sender never spins.
const tick = time.Millisecond

// paceTicks calls send(due) for the rate·dur requests of an even schedule
// starting now. At each tick it sends every request that has come due
// since the last one, then calls flush(t). Requests are timed from due,
// so a late wake-up shows in their latency.
func paceTicks(now func() int64, rate float64, dur time.Duration, send func(due int64), flush func(t int64)) {
	period := float64(time.Second) / rate
	n := int(rate * dur.Seconds())
	start := now()
	for i := 0; i < n; {
		t := now()
		for ; i < n; i++ {
			due := start + int64(float64(i)*period)
			if due > t {
				break
			}
			send(due)
		}
		flush(t)
		if i < n {
			next := start + ((t-start)/int64(tick)+1)*int64(tick)
			nap(time.Duration(next - now()))
		}
	}
}

// nap sleeps for d with the kernel's timer. The Go runtime's timers wake
// a process with no network activity only at millisecond granularity
// (time.Sleep(50µs) takes ~1.08ms on a 2-vCPU VM), which would turn a 1ms
// tick into two; nanosleep(2) wakes within ~60µs.
func nap(d time.Duration) {
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	syscall.Nanosleep(&ts, nil) // an early EINTR wake just sends sooner
}

// pace sends the stream's next requests at rate ops/s for dur,
// alternating connections. With window > 0 it also reads the server's
// counters in band every window into *windows.
func (d *loadgen) pace(rate float64, dur time.Duration, seg *segment, window time.Duration, windows *[]map[string]float64) {
	nextWin := d.now() + int64(window)
	var chs []chan map[string]float64
	ci := 0
	paceTicks(d.now, rate, dur, func(due int64) {
		d.send(ci, d.s.next(), due, seg)
		ci = (ci + 1) % len(d.cs)
	}, func(t int64) {
		if window > 0 && t >= nextWin {
			ch := make(chan map[string]float64, 1)
			d.sendStats(seg, ch)
			chs = append(chs, ch)
			nextWin += int64(window)
		}
		d.flush()
	})
	if windows != nil {
		for _, ch := range chs {
			if m := <-ch; m != nil {
				*windows = append(*windows, m)
			}
		}
	}
}

// drain waits until every request of seg is answered; false on timeout.
func (d *loadgen) drain(seg *segment, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for seg.pending.Load() > 0 {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// latencies merges seg's per-connection latencies of one op kind.
func (seg *segment) latencies(kind uint8) []int64 {
	var out []int64
	for ci := range seg.lat {
		out = append(out, seg.lat[ci][kind]...)
	}
	return out
}

// all merges every op kind's latencies.
func (seg *segment) all() []int64 {
	var out []int64
	for _, k := range []uint8{kindGet, kindPut, kindScan} {
		out = append(out, seg.latencies(k)...)
	}
	return out
}

func (seg *segment) failures() int {
	n := 0
	for _, v := range seg.all() {
		if v == failed {
			n++
		}
	}
	return n
}

func (seg *segment) allSpans() []span {
	var out []span
	for ci := range seg.spans {
		out = append(out, seg.spans[ci]...)
	}
	return out
}

// userBytes is the live user data the benchmark wrote: every key's
// latest value plus its 8-byte key.
func (d *loadgen) userBytes() float64 {
	t := 0.0
	for _, n := range d.sizes {
		t += float64(n) + 8
	}
	return t
}
