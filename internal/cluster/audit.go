package cluster

import (
	"context"
	"fmt"

	"fastmatch/internal/engine"
)

// Audit is the coordinated twin of engine.AuditRun: it re-executes the
// query across the shard set with the exact Scan executor (via the same
// scatter-gather fold queries use) and grades the approximate answer
// against the global exact ranking with engine.GradeAudit. The refusal
// rules match AuditRun's — empty and partial answers claimed no
// guarantee, so there is nothing to grade — plus one of its own: a
// degraded reference pass is not ground truth, so audits over a cluster
// with missing shards are refused rather than graded against a lie.
func (c *Coordinator) Audit(ctx context.Context, t engine.Target, approx *engine.Result, opts engine.Options) (*engine.Audit, error) {
	if approx == nil || len(approx.TopK) == 0 {
		return nil, fmt.Errorf("engine: nothing to audit: empty approximate answer")
	}
	if approx.Partial {
		return nil, fmt.Errorf("engine: refusing to audit a partial answer: no guarantee was claimed")
	}
	// The reference pass must rank every candidate, so the candidate
	// count has to be known before options can be derived; a meta
	// round-trip answers it (bound HTTP shards memoize their meta, so
	// the follow-up Run reuses the same snapshot).
	st, err := c.connect(ctx, opts)
	if err != nil {
		return nil, fmt.Errorf("engine: audit reference scan: %w", err)
	}
	if st.degraded {
		return nil, fmt.Errorf("cluster: audit reference scan degraded: missing shards %v", missingNames(st))
	}
	exOpts := engine.AuditReferenceOptions(opts, st.ref.Candidates)
	ref, err := c.Run(ctx, t, exOpts)
	if err != nil {
		return nil, fmt.Errorf("engine: audit reference scan: %w", err)
	}
	if ref.Degraded || ref.Result.Partial {
		return nil, fmt.Errorf("cluster: audit reference scan degraded: missing shards %v", ref.Missing)
	}
	return engine.GradeAudit(approx, ref.Result, opts.Params.Epsilon)
}

func missingNames(st *runState) []string {
	var out []string
	for _, sr := range st.shards {
		if sr.dead {
			out = append(out, sr.shard.Name())
		}
	}
	return out
}
