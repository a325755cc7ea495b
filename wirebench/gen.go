package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync/atomic"
)

// rng is splitmix64: tiny, fast, and fixed forever, so a seed names the
// same inputs on every Go release.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a uniform int in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// float returns a uniform float64 in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// zipf draws ranks in [0, n) with P(rank i) ∝ 1/(i+1)^theta, by the
// rejection-free inversion of Gray et al. (the YCSB generator), which also
// works for theta < 1 where math/rand.Zipf does not.
type zipf struct {
	n                 int
	theta, alpha, eta float64
	zetan, half       float64
}

func newZipf(n int, theta float64) *zipf {
	zeta := func(m int) float64 {
		s := 0.0
		for i := 1; i <= m; i++ {
			s += 1 / math.Pow(float64(i), theta)
		}
		return s
	}
	z := &zipf{n: n, theta: theta, zetan: zeta(n)}
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2)/z.zetan)
	z.half = 1 + math.Pow(0.5, theta)
	return z
}

func (z *zipf) rank(r *rng) int {
	u := r.float()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.half {
		return 1
	}
	k := int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if k >= z.n {
		k = z.n - 1
	}
	return k
}

// Operation kinds the generator issues, with their wire op codes.
const (
	kindGet  = 0
	kindPut  = 1
	kindScan = 3
)

var kindNames = map[uint8]string{kindGet: "get", kindPut: "put", kindScan: "scan"}

// op is one generated request.
type op struct {
	kind  uint8
	id    int    // key index in [0, keys); the wire key is id+1
	ver   uint32 // put: the version this put writes
	size  int    // put: value length
	count int    // scan: entries requested
}

// stream generates a workload's requests from its seed. Every call to next
// advances one deterministic sequence, so two runs with one seed send the
// same requests in the same order; only their timing differs.
type stream struct {
	w      *Workload
	r      rng
	z      *zipf
	perm   []int32  // zipf rank → key index, so hot keys are scattered
	latest []uint32 // per key: version of the latest generated put (atomic)
}

func newStream(w *Workload, seed uint64) *stream {
	s := &stream{w: w, r: rng{s: seed ^ 0x5eed}, latest: make([]uint32, w.Keys)}
	if w.Zipf > 0 {
		s.z = newZipf(w.Keys, w.Zipf)
		s.perm = make([]int32, w.Keys)
		for i := range s.perm {
			s.perm[i] = int32(i)
		}
		for i := len(s.perm) - 1; i > 0; i-- {
			j := s.r.intn(i + 1)
			s.perm[i], s.perm[j] = s.perm[j], s.perm[i]
		}
	}
	return s
}

// key draws a key index with the workload's popularity distribution.
func (s *stream) key() int {
	if s.z != nil {
		return int(s.perm[s.z.rank(&s.r)])
	}
	return s.r.intn(s.w.Keys)
}

// issued returns the version written by the latest put generated for key
// index id (0 before any). Checkers read it while the sender generates.
func (s *stream) issued(id int) uint32 { return atomic.LoadUint32(&s.latest[id]) }

// hottest returns the k most popular key indexes (all keys are equally
// popular under a uniform distribution: it then returns the first k).
func (s *stream) hottest(k int) []int {
	out := make([]int, 0, k)
	for i := 0; i < k && i < s.w.Keys; i++ {
		if s.perm != nil {
			out = append(out, int(s.perm[i]))
		} else {
			out = append(out, i)
		}
	}
	return out
}

// drawSize draws a value length from r.
func (w *Workload) drawSize(r *rng) int {
	if w.ValMax == w.ValMin {
		return w.ValMin
	}
	return w.ValMin + r.intn(w.ValMax-w.ValMin+1)
}

// next returns the next request. A put's version is one more than the
// previous put to that key; preload writes version 0.
func (s *stream) next() op {
	p := s.r.intn(100)
	switch {
	case p < s.w.GetPct:
		return op{kind: kindGet, id: s.key()}
	case p < s.w.GetPct+s.w.PutPct:
		id := s.key()
		ver := atomic.AddUint32(&s.latest[id], 1)
		return op{kind: kindPut, id: id, ver: ver, size: s.w.drawSize(&s.r)}
	default:
		return op{kind: kindScan, id: s.key(), count: 1 + s.r.intn(s.w.ScanMax)}
	}
}

// Value layout: key(8) version(4) length(4), then filler bytes drawn from
// (seed, key, version). A value therefore names its own key and version,
// and any flipped, dropped or foreign byte fails the check.
const valHeader = 16

// encodeValue appends the value for (key, ver) of length size to dst.
func encodeValue(dst []byte, seed, key uint64, ver uint32, size int) []byte {
	if size < valHeader {
		size = valHeader
	}
	n := len(dst)
	dst = append(dst, make([]byte, size)...)
	v := dst[n:]
	binary.LittleEndian.PutUint64(v[0:8], key)
	binary.LittleEndian.PutUint32(v[8:12], ver)
	binary.LittleEndian.PutUint32(v[12:16], uint32(size))
	fill(v[valHeader:], seed, key, ver)
	return dst
}

func fillState(seed, key uint64, ver uint32) rng {
	return rng{s: seed*0x9e3779b97f4a7c15 ^ key*0xc2b2ae3d27d4eb4f ^ uint64(ver)<<32}
}

func fill(b []byte, seed, key uint64, ver uint32) {
	r := fillState(seed, key, ver)
	var w [8]byte
	for i := 0; i < len(b); i += 8 {
		binary.LittleEndian.PutUint64(w[:], r.next())
		copy(b[i:], w[:])
	}
}

// decodeValue checks that val is a well-formed value written for key and
// returns its version.
func decodeValue(val []byte, seed, key uint64) (uint32, error) {
	if len(val) < valHeader {
		return 0, fmt.Errorf("key %d: value of %d bytes is shorter than its header", key, len(val))
	}
	if got := binary.LittleEndian.Uint64(val[0:8]); got != key {
		return 0, fmt.Errorf("key %d: value belongs to key %d", key, got)
	}
	ver := binary.LittleEndian.Uint32(val[8:12])
	if n := binary.LittleEndian.Uint32(val[12:16]); int(n) != len(val) {
		return 0, fmt.Errorf("key %d: value length %d, header says %d", key, len(val), n)
	}
	r := fillState(seed, key, ver)
	var w [8]byte
	body := val[valHeader:]
	for i := 0; i < len(body); i += 8 {
		binary.LittleEndian.PutUint64(w[:], r.next())
		m := 8
		if i+m > len(body) {
			m = len(body) - i
		}
		for j := 0; j < m; j++ {
			if body[i+j] != w[j] {
				return 0, fmt.Errorf("key %d: value byte %d corrupt (version %d)", key, valHeader+i+j, ver)
			}
		}
	}
	return ver, nil
}
