package main

import (
	"fmt"
	"math"

	"fastmatch"
	"fastmatch/internal/expt"
	"fastmatch/internal/histogram"
)

// exactHists counts every candidate's histogram by brute force over the
// first rows rows of an in-memory table: one pass over the two columns'
// codes, with no executor, index or sampler involved. The result is
// indexed [candidate code][group code].
func exactHists(tbl *fastmatch.Table, z, x string, rows int) ([][]float64, error) {
	zc, err := tbl.Column(z)
	if err != nil {
		return nil, err
	}
	xc, err := tbl.Column(x)
	if err != nil {
		return nil, err
	}
	out := make([][]float64, zc.Cardinality())
	for i := range out {
		out[i] = make([]float64, xc.Cardinality())
	}
	zs, xs := zc.Codes(0, rows), xc.Codes(0, rows)
	for i := range zs {
		out[zs[i]][xs[i]]++
	}
	return out, nil
}

// truth is one query's brute-force answer: every candidate's exact
// distance to the target, keyed by candidate label, and the exact top-k
// among the candidates whose selectivity reaches σ.
type truth struct {
	k       int
	epsilon float64
	dist    map[string]float64
	topk    []histogram.Ranked // IDs index labels
	labels  []string
}

// newTruth ranks candidates by exact distance to target, keeping those
// with at least σ·rows tuples, as the exact executors do.
func newTruth(hists [][]float64, labels []string, target []float64, k int, sigma, epsilon float64, rows int) *truth {
	t := &truth{k: k, epsilon: epsilon, dist: make(map[string]float64, len(hists)), labels: labels}
	th := histogram.FromCounts(target)
	d := make([]float64, len(hists))
	var keep []int
	for i, h := range hists {
		hh := histogram.FromCounts(h)
		d[i] = histogram.L1(hh, th)
		t.dist[labels[i]] = d[i]
		if hh.Total()/float64(rows) >= sigma {
			keep = append(keep, i)
		}
	}
	t.topk = histogram.TopK(d, keep, k)
	return t
}

// kth is the exact distance of the k-th closest eligible candidate.
func (t *truth) kth() float64 { return t.topk[len(t.topk)-1].Distance }

// checkExact compares an exact executor's answer (labels and distances
// in rank order) with the brute-force ranking. Ties in distance may
// order differently, so each rank's distance must match and each label's
// reported distance must be its exact one.
func (t *truth) checkExact(labels []string, dists []float64) error {
	if len(labels) != len(t.topk) {
		return fmt.Errorf("exact answer has %d matches, brute force %d", len(labels), len(t.topk))
	}
	for i, l := range labels {
		want, ok := t.dist[l]
		if !ok {
			return fmt.Errorf("exact answer rank %d names unknown candidate %q", i, l)
		}
		if math.Abs(dists[i]-t.topk[i].Distance) > 1e-9 || math.Abs(dists[i]-want) > 1e-9 {
			return fmt.Errorf("exact answer rank %d: %q at distance %.12g, brute force has %.12g at that rank and %.12g for %q",
				i, l, dists[i], t.topk[i].Distance, want, l)
		}
	}
	return nil
}

// grade scores a sampling answer: precision is |returned ∩ exact top-k|/k,
// and a violation is a returned candidate whose exact distance exceeds
// the exact k-th distance by more than ε (the separation guarantee).
func (t *truth) grade(labels []string) (precision float64, violations int) {
	exact := make(map[string]bool, len(t.topk))
	for _, r := range t.topk {
		exact[t.labels[r.ID]] = true
	}
	hit := 0
	limit := t.kth() + t.epsilon + 1e-12
	for _, l := range labels {
		if exact[l] {
			hit++
		}
		if d, ok := t.dist[l]; !ok || d > limit {
			violations++
		}
	}
	return float64(hit) / float64(t.k), violations
}

// flightsTarget is how a Table 3 flights template's target is posed to
// the engine: a candidate label whose exact histogram is the target, or
// explicit counts.
type flightsTarget struct {
	candidate string
	counts    []float64
}

func (ft flightsTarget) engineTarget() fastmatch.Target {
	if ft.candidate != "" {
		return fastmatch.Target{Candidate: ft.candidate}
	}
	return fastmatch.Target{Counts: ft.counts}
}

// pickTarget chooses a template's target the way the expt harness does
// (top candidate, rare candidate at ≥ 4σ, explicit, or the candidate
// nearest to uniform among those at ≥ σ), returning its counts and how
// to pose it.
func pickTarget(spec expt.QuerySpec, hists [][]float64, labels []string, sigma float64, rows int) ([]float64, flightsTarget, error) {
	totals := make([]float64, len(hists))
	for i, h := range hists {
		for _, c := range h {
			totals[i] += c
		}
	}
	best := -1
	switch spec.Target {
	case expt.TargetExplicit:
		return spec.ExplicitTarget, flightsTarget{counts: spec.ExplicitTarget}, nil
	case expt.TargetTopCandidate:
		for i := range hists {
			if best < 0 || totals[i] > totals[best] {
				best = i
			}
		}
	case expt.TargetRareCandidate:
		floor := 4 * sigma * float64(rows)
		for i := range hists {
			if totals[i] >= floor && (best < 0 || totals[i] < totals[best]) {
				best = i
			}
		}
	case expt.TargetNearUniform:
		groups := len(hists[0])
		uni := make([]float64, groups)
		for g := range uni {
			uni[g] = 1
		}
		u := histogram.FromCounts(uni)
		bestD := 0.0
		for i, h := range hists {
			if totals[i] < sigma*float64(rows) {
				continue
			}
			if d := histogram.L1(histogram.FromCounts(h), u); best < 0 || d < bestD {
				best, bestD = i, d
			}
		}
	}
	if best < 0 {
		return nil, flightsTarget{}, fmt.Errorf("%s: no candidate qualifies as its target", spec.ID)
	}
	return hists[best], flightsTarget{candidate: labels[best]}, nil
}

// flightsTemplates returns the Table 3 flights-q1…q4 specs.
func flightsTemplates() []expt.QuerySpec {
	var out []expt.QuerySpec
	for _, q := range expt.Queries {
		if q.Dataset == "flights" {
			out = append(out, q)
		}
	}
	return out
}

// exptParams mirrors the expt harness's per-run HistSim parameters for
// a query over rows tuples with the given group count: ε scaled by
// √(groups/24) and clamped to [0.06, 0.4], the workspace δ and σ, and a
// stage-1 sample of rows/40 clamped to [20 000, 500 000]. table3-inmem
// checks after set-up that, on each of its nine queries, a run with
// these parameters equals the harness's own run.
func exptParams(cfg expt.Config, k, groups, rows int) fastmatch.Params {
	eps := cfg.Epsilon * math.Sqrt(float64(groups)/24)
	eps = math.Min(math.Max(eps, 0.06), 0.4)
	m := rows / 40
	m = min(max(m, 20_000), 500_000)
	return fastmatch.Params{
		K:             k,
		Epsilon:       eps,
		Delta:         cfg.Delta,
		Sigma:         cfg.Sigma,
		Stage1Samples: m,
		Metric:        fastmatch.MetricL1,
	}
}
