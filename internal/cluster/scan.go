package cluster

import (
	"context"
	"errors"
	"time"

	"fastmatch/internal/core"
	"fastmatch/internal/engine"
	"fastmatch/internal/histogram"
	"fastmatch/internal/obs/trace"
)

// runScan answers with the exact Scan by scatter-gather: each shard
// scans its qualifying blocks on the run's Workers, the coordinator folds
// the local exact histograms with Batch.Merge (integer sums —
// order-independent and value-exact), then ranks the global accumulation
// through the same engine.ExactResult the single-node pass uses. An
// explicit Scan fans out to every shard at once. Budgeted or deadlined
// runs chain the shards with the residual budget, so the stop lands on
// the block a single node would stop at. A crossover run (a sampling
// executor sent to Scan by engine.Options.Crossover) chains them too:
// fanned out, the shards' workers outnumber the cores, and on the
// serving benchmark the appends running beside it took 4x longer at p95.
func (st *runState) runScan(ctx context.Context, target *histogram.Histogram, began time.Time, runSpan *trace.Span, crossover bool) (*Result, error) {
	if err := st.opts.Params.Validate(); err != nil {
		return nil, err
	}
	mkReq := func() *engine.ShardSegment {
		req := engine.SegmentKnobs(st.opts)
		req.Kind = engine.SegScan
		st.guard.Limit(&req)
		return &req
	}
	gb := st.newBatch()
	var io engine.IOStats
	fold := func(sr *shardRun, req *engine.ShardSegment, res *engine.ShardSegmentResult, err error) error {
		part, err := st.decode(sr, req, res, err, runSpan, true)
		if err != nil {
			return nil // the shard is dead: degraded, not failed
		}
		if err := gb.Merge(part); err != nil {
			return err
		}
		io.Add(res.IO)
		if st.opts.OnProgress != nil {
			st.opts.OnProgress(engine.Progress{Phase: "scan", IO: io, Elapsed: time.Since(began)})
		}
		return st.guard.Charge(part.Drawn, res.Stopped)
	}
	// A guard stop (it wraps core.ErrInterrupted) ends the pass with a
	// partial answer; any other error fails the run.
	stopErr := st.scatter(ctx, st.sequential() || crossover, mkReq, fold)
	if stopErr != nil && !errors.Is(stopErr, core.ErrInterrupted) {
		return nil, stopErr
	}
	// Degraded scans are honest partials: the fold holds only data
	// actually read, and an incomplete pass never σ-prunes.
	complete := stopErr == nil && !st.degraded
	hists := gb.Hists
	for i, h := range hists {
		if h == nil {
			hists[i] = histogram.New(st.ref.Groups)
		}
	}
	res := engine.ExactResult(target, st.opts.Params, hists, gb.Drawn, complete, st.labelOf)
	res.IO, res.Crossover = io, crossover
	res.Duration = time.Since(began)
	res.GroupLabels = st.ref.GroupLabels
	return st.finish(res), stopErr
}
