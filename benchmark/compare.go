package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// benchSpec is the part of BENCHMARK.json the comparator reads.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// Verdicts of one (metric, workload) comparison of a change (B) against
// its parent (A).
const (
	verdictImproved   = "improved"
	verdictNoWorse    = "no worse"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// comparison is the outcome for one (metric, workload) pair.
type comparison struct {
	MedA, MedB       float64
	Q1A, Q3A         float64
	Q1B, Q3B         float64
	Wins, Losses     int // pairs where B is better / worse than A
	Pairs            int
	Worsening        float64 // (B − A)/A in the worse direction; negative is better
	SpreadA, SpreadB float64
	Verdict          string
}

// compareSamples decides a verdict for one metric. a and b are the
// per-run values of each side; pairs holds (a, b) values of runs made
// with the same seed. better is "lower" or "higher"; bound is the share
// of A's median by which B may get worse (0 for a metric without a
// bound, which then never reads "no worse").
//
//   - improved: B wins at least nine tenths of the pairs (ties count for
//     neither side) and the medians differ, in B's favour, by more than
//     A's own interquartile distance;
//   - unresolved: either side's spread exceeds the bound and the runs
//     do not separate (some run of B is not worse than some run of A);
//   - worse: B's median is worse than A's by more than the bound;
//   - no worse: otherwise.
func compareSamples(a, b []float64, pairs [][2]float64, better string, bound float64) comparison {
	c := comparison{MedA: median(a), MedB: median(b), Pairs: len(pairs)}
	c.Q1A, c.Q3A = quartiles(a)
	c.Q1B, c.Q3B = quartiles(b)
	c.SpreadA, c.SpreadB = relSpread(a), relSpread(b)
	sign := 1.0 // +1: larger is worse
	if better == "higher" {
		sign = -1
	}
	for _, p := range pairs {
		d := sign * (p[1] - p[0])
		switch {
		case d < 0:
			c.Wins++
		case d > 0:
			c.Losses++
		}
	}
	if c.MedA != 0 {
		c.Worsening = sign * (c.MedB - c.MedA) / math.Abs(c.MedA)
	}
	gain := sign * (c.MedA - c.MedB)
	switch {
	case len(pairs) > 0 && float64(c.Wins) >= 0.9*float64(len(pairs)) && gain > math.Abs(c.Q3A-c.Q1A):
		c.Verdict = verdictImproved
	case math.Max(c.SpreadA, c.SpreadB) > bound && !separated(a, b, sign):
		c.Verdict = verdictUnresolved
	case c.Worsening > bound:
		c.Verdict = verdictWorse
	default:
		c.Verdict = verdictNoWorse
	}
	return c
}

// separated reports whether every run of one side is worse than every
// run of the other — the one case where a spread wider than the bound
// still decides the comparison.
func separated(a, b []float64, sign float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	worstA, bestA := extremes(a, sign)
	worstB, bestB := extremes(b, sign)
	return sign*(bestB-worstA) > 0 || sign*(bestA-worstB) > 0
}

// extremes returns the worst and best value of xs under sign (+1: larger
// is worse).
func extremes(xs []float64, sign float64) (worst, best float64) {
	worst, best = xs[0], xs[0]
	for _, x := range xs[1:] {
		if sign*(x-worst) > 0 {
			worst = x
		}
		if sign*(x-best) < 0 {
			best = x
		}
	}
	return worst, best
}

// loadRecords reads every result file under dir.
func loadRecords(dir string) ([]record, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var out []record
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if r.Workload != "" {
			out = append(out, r)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no result files in %s", dir)
	}
	return out, nil
}

// runCompare prints, for each (metric, workload), both sides' medians,
// quartiles and pair wins, and a verdict under BENCHMARK.json's bounds.
// Side A is the parent, side B the change. It returns the number of
// "worse" verdicts.
func runCompare(w io.Writer, specPath, dirA, dirB string) (int, error) {
	b, err := os.ReadFile(specPath)
	if err != nil {
		return 0, err
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return 0, fmt.Errorf("%s: %w", specPath, err)
	}
	recA, err := loadRecords(dirA)
	if err != nil {
		return 0, err
	}
	recB, err := loadRecords(dirB)
	if err != nil {
		return 0, err
	}
	type key struct {
		workload string
		trace    bool
	}
	group := func(rs []record) map[key][]record {
		m := map[key][]record{}
		for _, r := range rs {
			k := key{r.Workload, r.Trace}
			m[k] = append(m[k], r)
		}
		return m
	}
	ga, gb := group(recA), group(recB)
	var keys []key
	for k := range ga {
		if _, ok := gb[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].trace != keys[j].trace {
			return !keys[i].trace
		}
		return keys[i].workload < keys[j].workload
	})
	worse := 0
	fmt.Fprintf(w, "%-34s %-20s %5s %12s %25s %12s %25s %7s %8s  %s\n",
		"metric", "workload", "runs", "median A", "quartiles A", "median B", "quartiles B", "wins", "worse by", "verdict")
	for _, k := range keys {
		metrics := spec.EndToEnd
		if k.trace {
			metrics = spec.PerLayer
		}
		for _, ms := range metrics {
			var a, bv []float64
			bySeed := map[int64]float64{}
			for _, r := range ga[k] {
				if m, ok := r.Metrics[ms.Name]; ok {
					a = append(a, m.Value)
					bySeed[r.Provenance.Seed] = m.Value
				}
			}
			var pairs [][2]float64
			for _, r := range gb[k] {
				if m, ok := r.Metrics[ms.Name]; ok {
					bv = append(bv, m.Value)
					if av, ok := bySeed[r.Provenance.Seed]; ok {
						pairs = append(pairs, [2]float64{av, m.Value})
					}
				}
			}
			if len(a) == 0 || len(bv) == 0 {
				continue
			}
			c := compareSamples(a, bv, pairs, ms.Better, ms.Bound)
			verdict := c.Verdict
			if k.trace {
				verdict = "(per-layer, no bound)"
			} else if verdict == verdictWorse {
				worse++
			}
			fmt.Fprintf(w, "%-34s %-20s %2d/%-2d %12.6g %12.6g–%-12.6g %12.6g %12.6g–%-12.6g %3d/%-3d %+7.1f%%  %s\n",
				ms.Name, k.workload, len(a), len(bv), c.MedA, c.Q1A, c.Q3A, c.MedB, c.Q1B, c.Q3B,
				c.Wins, c.Pairs, 100*c.Worsening, verdict)
		}
	}
	return worse, nil
}
