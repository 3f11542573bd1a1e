package engine

import (
	"fmt"
	"math"

	"fastmatch/internal/core"
	"fastmatch/internal/histogram"
)

// DefaultOptions returns the paper's default configuration scaled to a
// dataset of totalRows tuples: k=10, ε=0.04, δ=0.01, σ=0.0008,
// lookahead=1024 blocks, FastMatch executor, and a stage-1 sample of
// max(rows/20, 2000) capped at the paper's m = 5·10⁵. Seed is left at
// zero — a fixed seed, not a random one; see the root package's
// DefaultOptions doc for the seeding discussion.
func DefaultOptions(totalRows int) Options {
	m := totalRows / 20
	if m < 2000 {
		m = 2000
	}
	if m > 500_000 {
		m = 500_000
	}
	return Options{
		Params: core.Params{
			K:             10,
			Epsilon:       0.04,
			Delta:         0.01,
			Sigma:         0.0008,
			Stage1Samples: m,
			Metric:        histogram.MetricL1,
		},
		Executor:   FastMatch,
		Lookahead:  1024,
		StartBlock: -1,
	}
}

// crossoverThreshold is the predicted read fraction at which
// Options.Crossover sends a sampling executor to the exact Scan. Once
// the sampler is expected to read half the table, its per-tuple overhead
// over the kernelized scan outweighs the tuples it saves.
const crossoverThreshold = 0.5

// Crossover decides, from the options and the table's shape alone,
// whether a sampling executor should answer with the exact Scan
// instead. It returns the decision and the predicted fraction of
// the table's rows the sampler would read:
//
//	max(m/N, n'/max(σN, 1)),  n' = Metric.PlanSamples(G, ε/2, δ/6)
//
// m/N is stage 1's share of the table. n' is round 1's Equation-(1)
// demand at the worst margin planRound allows (ε'_i ≥ ε/2, δ_upper =
// δ/6 in the first round), so n'/(σN) is the share of its own rows a
// candidate at the σ floor must yield: a candidate that rare is spread
// over the whole table, and drawing that share of its rows means
// reading that share of the table. The decision fires when the fraction
// is at least crossoverThreshold and the run is eligible: a sampling
// executor, DisableCrossover unset, no RowBudget and no Deadline (a
// run cut short returns a partial answer that depends on the
// executor's read order: the sampler's starts at a random block, Scan's
// workers read chunks in storage order), and no KRange (Scan ranks KMax
// matches, while HistSim picks the widest-gap k). A crossover run
// cancelled through its context, such as a server's per-table timeout,
// returns the blocks Scan read before the stop, and its histograms hold
// exactly the rows its IO counts. An exact answer meets Guarantees 1
// and 2 trivially, so the switch never
// weakens a completed result. No statistics are consulted: the decision
// is a deterministic function of (rows, groups, options).
func (o Options) Crossover(rows int64, groups int) (bool, float64) {
	p := o.Params
	frac := 1.0
	if rows > 0 {
		n := float64(rows)
		need := float64(p.Metric.PlanSamples(groups, p.Epsilon/2, p.Delta/6))
		frac = math.Max(float64(p.Stage1Samples)/n, need/math.Max(p.Sigma*n, 1))
	}
	eligible := !o.DisableCrossover && o.RowBudget == 0 && o.Deadline.IsZero() && p.KRange.KMax == 0
	switch o.Executor {
	case ScanMatch, SyncMatch, FastMatch:
	default:
		eligible = false
	}
	return eligible && frac >= crossoverThreshold, frac
}

// InvalidOptionsError reports a nonsensical Options value, naming the
// offending field. It is returned (wrapped or not) by Options.Validate and
// by every Run entry point before any sampling happens, so a malformed
// request can never reach undefined behavior deep in the sampler. Callers
// detect it with errors.As — a serving layer maps it to a 4xx response
// while genuine execution failures stay 5xx.
type InvalidOptionsError struct {
	// Field names the offending Options/Params field, e.g. "Epsilon".
	Field string
	// Reason describes the constraint that failed.
	Reason string
}

// Error implements error.
func (e *InvalidOptionsError) Error() string {
	return fmt.Sprintf("engine: invalid option %s: %s", e.Field, e.Reason)
}

// Validate checks every run-affecting field and returns an
// *InvalidOptionsError naming the first offending one. The zero Options
// value is NOT valid (K and Epsilon are zero); DefaultOptions always is.
func (o Options) Validate() error {
	bad := func(field, format string, args ...any) error {
		return &InvalidOptionsError{Field: field, Reason: fmt.Sprintf(format, args...)}
	}
	p := o.Params
	if p.K < 1 && p.KRange.KMax <= 0 {
		return bad("K", "k must be ≥ 1, got %d", p.K)
	}
	if math.IsNaN(p.Epsilon) || !(p.Epsilon > 0 && p.Epsilon <= 2) {
		return bad("Epsilon", "ε must be in (0, 2], got %g", p.Epsilon)
	}
	if math.IsNaN(p.EpsilonReconstruct) || p.EpsilonReconstruct < 0 || p.EpsilonReconstruct > 2 {
		return bad("EpsilonReconstruct", "ε₂ must be in [0, 2], got %g", p.EpsilonReconstruct)
	}
	if math.IsNaN(p.Delta) || !(p.Delta > 0 && p.Delta < 1) {
		return bad("Delta", "δ must be in (0, 1), got %g", p.Delta)
	}
	if math.IsNaN(p.Sigma) || p.Sigma < 0 || p.Sigma >= 1 {
		return bad("Sigma", "σ must be in [0, 1), got %g", p.Sigma)
	}
	if p.Stage1Samples < 0 {
		return bad("Stage1Samples", "stage-1 sample size must be ≥ 0, got %d", p.Stage1Samples)
	}
	if p.KRange.KMax > 0 && (p.KRange.KMin < 1 || p.KRange.KMin > p.KRange.KMax) {
		return bad("KRange", "invalid k range [%d, %d]", p.KRange.KMin, p.KRange.KMax)
	}
	if p.MaxRounds < 0 {
		return bad("MaxRounds", "round cap must be ≥ 0, got %d", p.MaxRounds)
	}
	switch p.Metric {
	case histogram.MetricL1, histogram.MetricL2:
	default:
		return bad("Metric", "unknown metric %d", int(p.Metric))
	}
	switch o.Executor {
	case Scan, ScanMatch, SyncMatch, FastMatch:
	default:
		return bad("Executor", "unknown executor %d", int(o.Executor))
	}
	if o.RowBudget < 0 {
		return bad("RowBudget", "row budget must be ≥ 0, got %d", o.RowBudget)
	}
	return nil
}
