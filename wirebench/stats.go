package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of vals,
// sorting vals in place. A failed request (the failed sentinel) sorts
// above every latency, so it counts as +∞: the result is failed whenever
// the quantile lands on one. Empty input yields failed.
func percentile(vals []int64, p float64) int64 {
	if len(vals) == 0 {
		return failed
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	i := int(math.Ceil(p*float64(len(vals)))) - 1
	if i < 0 {
		i = 0
	}
	return vals[i]
}

// mean of vals as float64; 0 for empty input.
func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

// minPerWindow is the fewest samples a window needs for its own P99:
// ten beyond the percentile.
const minPerWindow = 1000

// windowPercentile returns the median over windows of each window's
// p-quantile for op kind, and the total sample count. Consecutive windows
// are pooled until each pool holds minPerWindow samples; with fewer than
// three pools it falls back to the quantile of all samples together. The
// median makes one window of host noise move the result by at most one
// rank instead of dominating the tail.
func windowPercentile(wins []*segment, kind uint8, p float64) (int64, int) {
	var pools [][]int64
	var cur []int64
	n := 0
	for _, w := range wins {
		cur = append(cur, w.latencies(kind)...)
		if len(cur) >= minPerWindow {
			pools = append(pools, cur)
			n += len(cur)
			cur = nil
		}
	}
	if len(pools) < 3 {
		var all []int64
		for _, w := range wins {
			all = append(all, w.latencies(kind)...)
		}
		return percentile(all, p), len(all)
	}
	if len(cur) > 0 { // a short tail pool joins the last full one
		pools[len(pools)-1] = append(pools[len(pools)-1], cur...)
		n += len(cur)
	}
	var qs []float64
	for _, pl := range pools {
		qs = append(qs, float64(percentile(pl, p)))
	}
	return int64(median(qs)), n
}

// quartiles returns Q1, median and Q3 of vals with the same method as
// Python's statistics.quantiles(vals, n=4) (the "exclusive" method).
func quartiles(vals []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	// Python's integer form: for i = 1..3, j = i(n+1)/4 clamped to
	// [1, n-1], and the quartile interpolates s[j-1]..s[j] by i(n+1)-4j
	// quarters (extrapolating when the clamp bites).
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), median(s), q(3)
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
