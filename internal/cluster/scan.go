package cluster

import (
	"context"
	"time"

	"fastmatch/internal/engine"
	"fastmatch/internal/histogram"
	"fastmatch/internal/obs/trace"
)

// runScan answers with the exact executors by scatter-gather: each shard
// scans its qualifying blocks, the coordinator folds the local exact
// histograms with Batch.Merge (integer sums — order-independent and
// value-exact), then ranks the global accumulation through the same
// engine.RankExact the single-node pass uses. Un-budgeted runs fan out
// concurrently, one segment per shard; budgeted or deadlined runs
// chain shards sequentially with the residual budget so the stop lands
// on the same global block a single-node pass would stop at. A
// crossover run (a sampling executor sent to Scan by
// engine.Options.Crossover) chains the shards one at a time too, the way
// the single-node crossover reads with one worker: a concurrent fan-out
// would occupy every shard's cores at once for a query whose caller
// asked for a sampler.
func (st *runState) runScan(ctx context.Context, target *histogram.Histogram, began time.Time, runSpan *trace.Span, crossover bool) (*Result, error) {
	params := st.opts.Params
	if err := params.Validate(); err != nil {
		return nil, err
	}
	workers := 1
	if st.opts.Executor == engine.ParallelScan {
		workers = st.opts.Workers
	}
	mkReq := func() *engine.ShardSegment {
		req := &engine.ShardSegment{
			Kind:               engine.SegScan,
			Executor:           st.opts.Executor,
			Workers:            workers,
			DisableBlockSkip:   st.opts.DisableBlockSkip,
			DisableScanKernels: st.opts.DisableScanKernels,
		}
		st.guard.Limit(req)
		return req
	}
	gb := st.newBatch()
	var io engine.IOStats
	var stopErr error
	fold := func(sr *shardRun, req *engine.ShardSegment, res *engine.ShardSegmentResult, err error) error {
		part, err := st.decode(sr, req, res, err, runSpan, true)
		if err != nil {
			return nil // the shard is dead: degraded, not failed
		}
		if err := gb.Merge(part); err != nil {
			return err
		}
		segErr := st.guard.Charge(part.Drawn, res.Stopped)
		io.Add(res.IO)
		if st.opts.OnProgress != nil {
			st.opts.OnProgress(engine.Progress{Phase: "scan", IO: io, Elapsed: time.Since(began)})
		}
		if segErr != nil {
			stopErr = segErr
		}
		return nil
	}
	if st.sequential() || crossover {
		for _, sr := range st.walk {
			if stopErr = st.guard.Stop(); stopErr != nil {
				break
			}
			req := mkReq()
			res, err := sr.shard.Segment(ctx, req)
			if err := fold(sr, req, res, err); err != nil {
				return nil, err
			}
			if stopErr != nil {
				break
			}
		}
	} else {
		for _, r := range st.fanout(ctx, mkReq) {
			if err := fold(r.sr, mkReq(), r.res, r.err); err != nil {
				return nil, err
			}
		}
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
	res := &engine.Result{Exact: complete, Partial: !complete, IO: io, Crossover: crossover}
	res.TopK, res.Pruned = engine.RankExact(target, params, hists, gb.Drawn, complete, st.labelOf)
	res.Stats.ChosenK = len(res.TopK)
	res.Stats.PrunedCandidates = len(res.Pruned)
	res.Duration = time.Since(began)
	res.GroupLabels = st.ref.GroupLabels
	return st.finish(res), stopErr
}
