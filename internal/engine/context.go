package engine

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"fastmatch/internal/core"
)

// Typed run-termination errors. A run cut short returns one of these
// (test with errors.Is) alongside a best-effort partial Result — see
// Plan.RunContext for the full progressive contract.
var (
	// ErrCanceled marks a run stopped by its context (cancellation or
	// deadline) or by Options.Deadline. The chain also wraps the
	// underlying context error, so errors.Is(err, context.Canceled)
	// distinguishes an abandoned request from errors.Is(err,
	// context.DeadlineExceeded), a timed-out one.
	ErrCanceled = errors.New("engine: run canceled")
	// ErrBudgetExhausted marks a run stopped by Options.RowBudget.
	ErrBudgetExhausted = errors.New("engine: row budget exhausted")
)

// Progress is the interim state of a run in flight, delivered through
// Options.OnProgress. Sampling executors emit one after stage 1, after
// every HistSim round, and after stage 3; the sequential Scan executor
// emits one every few hundred blocks of its pass (ParallelScan's workers
// race, so it reports no interim frames). Estimates carry no guarantee
// until the run terminates.
type Progress struct {
	// Phase is "stage1", "stage2", "stage3" (sampling executors) or
	// "scan" (exact pass).
	Phase string `json:"phase"`
	// Round is the HistSim stage-2 round just completed (0 elsewhere).
	Round int `json:"round,omitempty"`
	// TopK is the current best-k by estimated distance, ascending
	// (empty for "scan" frames, which track the pass, not the ranking).
	TopK []ProgressMatch `json:"topk,omitempty"`
	// ActiveCandidates counts candidates still under consideration.
	ActiveCandidates int `json:"active_candidates,omitempty"`
	// SamplesDrawn is the cumulative tuples HistSim has consumed.
	SamplesDrawn int64 `json:"samples_drawn"`
	// IO is a snapshot of the run's block-level I/O counters.
	IO IOStats `json:"io"`
	// Elapsed is wall-clock time since the run began. It is the one
	// nondeterministic field; consumers comparing progress sequences
	// should zero it.
	Elapsed time.Duration `json:"elapsed_ns"`
	// Quality carries convergence telemetry (observed margin vs ε,
	// ranking churn), present only when Options.Quality is set.
	Quality *ProgressQuality `json:"quality,omitempty"`
}

// ProgressMatch is one candidate in a Progress ranking: the current
// distance estimate, without the (large) reconstructed histogram.
type ProgressMatch struct {
	ID       int     `json:"id"`
	Label    string  `json:"label"`
	Distance float64 `json:"distance"`
	// CI is the (1−δ) confidence-interval half-width around Distance,
	// present (nonzero) only when Options.Quality is set.
	CI float64 `json:"ci,omitempty"`
}

// Guard enforces a run's termination conditions — context
// cancellation, deadline, row budget — at block-batch granularity: every
// executor consults Stop between block reads and unwinds cleanly when it
// fires. A nil guard (the common case: no context, no deadline, no
// budget) costs one nil check per block. A cluster coordinator holds one
// for the whole coordinated run, so shard segments are charged and
// stopped exactly as a single node's reads would be.
type Guard struct {
	ctx      context.Context // nil when no context governs the run
	deadline time.Time       // zero when none
	budget   int64           // ≤ 0 when unlimited
	rows     atomic.Int64    // rows consumed, shared across scan workers
}

// NewGuard builds the guard for a run, or nil when nothing needs
// enforcing. A context that can never be canceled (context.Background())
// contributes nothing.
func NewGuard(ctx context.Context, opts Options) *Guard {
	hasCtx := ctx != nil && ctx.Done() != nil
	if !hasCtx && opts.Deadline.IsZero() && opts.RowBudget <= 0 {
		return nil
	}
	g := &Guard{deadline: opts.Deadline, budget: opts.RowBudget}
	if hasCtx {
		g.ctx = ctx
	}
	return g
}

// addRows charges consumed rows against the budget.
func (g *Guard) addRows(n int64) {
	if g != nil && g.budget > 0 {
		g.rows.Add(n)
	}
}

// Stop returns nil while the run may continue, or the typed termination
// error. Conditions are checked in a fixed order — context, budget,
// deadline — and the error chain wraps core.ErrInterrupted so HistSim
// folds the partial batch in and salvages a best-effort answer, plus
// ErrCanceled/ErrBudgetExhausted (and the context error) for callers.
func (g *Guard) Stop() error {
	if g == nil {
		return nil
	}
	if g.ctx != nil {
		if err := g.ctx.Err(); err != nil {
			return canceledStop(err)
		}
	}
	if g.budget > 0 && g.rows.Load() >= g.budget {
		return g.budgetStop()
	}
	if !g.deadline.IsZero() && !time.Now().Before(g.deadline) {
		return canceledStop(context.DeadlineExceeded)
	}
	return nil
}

func (g *Guard) budgetStop() error {
	var budget, read int64
	if g != nil {
		budget, read = g.budget, g.rows.Load()
	}
	return fmt.Errorf("%w (budget %d, read %d) (%w)", ErrBudgetExhausted, budget, read, core.ErrInterrupted)
}

func canceledStop(cause error) error {
	return fmt.Errorf("%w: %w (%w)", ErrCanceled, cause, core.ErrInterrupted)
}

// Limit stamps a shard segment with the guard's residual termination
// state: the budget left (0 = unlimited) and the deadline. An exhausted
// budget never reaches a shard, because Stop fires first.
func (g *Guard) Limit(seg *ShardSegment) {
	if g == nil {
		return
	}
	if g.budget > 0 {
		seg.RowBudget = g.budget - g.rows.Load()
	}
	seg.Deadline = g.deadline
}

// Charge charges a shard segment's rows against the budget and returns
// the termination error its stop reason stands for (nil for a completed
// segment), with the run's global accounting in the text so it matches
// what a single node would have returned.
func (g *Guard) Charge(rows int64, stopped string) error {
	g.addRows(rows)
	switch stopped {
	case "":
		return nil
	case SegStopBudget:
		return g.budgetStop()
	case SegStopDeadline:
		return canceledStop(context.DeadlineExceeded)
	default:
		return canceledStop(context.Canceled)
	}
}

// interrupted reports whether err is a guard termination carrying a
// salvageable partial result.
func interrupted(err error) bool {
	return errors.Is(err, ErrCanceled) || errors.Is(err, ErrBudgetExhausted)
}

// isBudget distinguishes a budget stop from a cancellation.
func isBudget(err error) bool { return errors.Is(err, ErrBudgetExhausted) }
