package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json compare needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareMain compares two sets of untraced run records (written with
// -record), A the base and B the candidate, per workload and end-to-end
// metric: B improved if it wins at least 9 of 10 pairs and its median
// beats A's by more than A's own quartile spread; unresolved if either
// side's spread exceeds the metric's bound (unless every B run beats every
// A run); worse if its median is worse than A's by more than the bound;
// otherwise no worse.
func compareMain(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition with the metric bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return errors.New("usage: wirebench compare [-bench BENCHMARK.json] base.jsonl candidate.jsonl")
	}
	var spec benchSpec
	b, err := os.ReadFile(*benchPath)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return fmt.Errorf("%s: %w", *benchPath, err)
	}
	a, err := readRecords(fs.Arg(0))
	if err != nil {
		return err
	}
	c, err := readRecords(fs.Arg(1))
	if err != nil {
		return err
	}
	var names []string
	for w := range a {
		if _, ok := c[w]; ok {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return errors.New("no workload has valid untraced runs on both sides")
	}
	fmt.Printf("%-11s %-24s %-30s %-30s %-6s %-8s %s\n", "workload", "metric", "base median [q1 q3]", "cand median [q1 q3]", "wins", "change", "verdict")
	for _, w := range names {
		for _, m := range spec.EndToEnd {
			av, bv := values(a[w], m.Name), values(c[w], m.Name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			v := judge(av, bv, m.Better == "lower", m.Bound)
			fmt.Printf("%-11s %-24s %-30s %-30s %2d/%-3d %+7.1f%% %s\n", w, m.Name,
				fmt.Sprintf("%.4g [%.4g %.4g]", v.aMed, v.aQ1, v.aQ3),
				fmt.Sprintf("%.4g [%.4g %.4g]", v.bMed, v.bQ1, v.bQ3),
				v.wins, v.pairs, 100*v.change, v.verdict)
		}
	}
	return nil
}

// readRecords loads valid untraced records per workload, in file order.
func readRecords(path string) (map[string][]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]result{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Valid && !r.Trace {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out, sc.Err()
}

// values returns one metric's values with their seeds.
func values(rs []result, name string) []seeded {
	var v []seeded
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok && m.Note == "" {
			v = append(v, seeded{r.Seed, m.Value})
		}
	}
	return v
}

type seeded struct {
	seed uint64
	v    float64
}

type verdict struct {
	aQ1, aMed, aQ3 float64
	bQ1, bMed, bQ3 float64
	wins, pairs    int
	change         float64 // relative change of the median, positive = better
	verdict        string
}

// judge applies the comparison rules to one workload × metric. Runs pair
// by seed where both sides ran it, otherwise by position.
func judge(a, b []seeded, lowerBetter bool, bound float64) verdict {
	var v verdict
	fa, fb := floats(a), floats(b)
	v.aQ1, v.aMed, v.aQ3 = quartiles(fa)
	v.bQ1, v.bMed, v.bQ3 = quartiles(fb)
	better := func(x, y float64) bool { // x better than y
		if lowerBetter {
			return x < y
		}
		return x > y
	}
	bySeed := map[uint64]float64{}
	for _, s := range a {
		bySeed[s.seed] = s.v
	}
	for i, s := range b {
		av, ok := bySeed[s.seed]
		if !ok {
			if i >= len(a) {
				continue
			}
			av = a[i].v
		}
		v.pairs++
		if better(s.v, av) {
			v.wins++
		}
	}
	v.change = (v.bMed - v.aMed) / v.aMed
	if lowerBetter {
		v.change = -v.change
	}
	spread := max((v.aQ3-v.aQ1)/v.aMed, (v.bQ3-v.bQ1)/v.bMed)
	allBetter := true
	for _, x := range fb {
		for _, y := range fa {
			if !better(x, y) {
				allBetter = false
			}
		}
	}
	switch {
	case v.pairs > 0 && float64(v.wins) >= 0.9*float64(v.pairs) && better(v.bMed, v.aMed) &&
		math.Abs(v.bMed-v.aMed) > v.aQ3-v.aQ1:
		v.verdict = "improved"
	case spread > bound && !allBetter:
		v.verdict = fmt.Sprintf("unresolved (spread %.1f%% > bound %.0f%%)", 100*spread, 100*bound)
	case -v.change > bound:
		v.verdict = fmt.Sprintf("worse (bound %.0f%%)", 100*bound)
	default:
		v.verdict = "no worse"
	}
	return v
}

func floats(s []seeded) []float64 {
	out := make([]float64, len(s))
	for i, x := range s {
		out[i] = x.v
	}
	return out
}
