// Package cluster implements the distributed scatter-gather layer: a
// coordinator that owns a sharded table (row-range shards, each served
// by an independent fastmatchd process) and answers queries by folding
// per-shard partials with the exact algebra the intra-node path uses —
// core.Batch.Merge for sampler state and IOStats.Add for accounting.
//
// A sampling run is the engine's own sampling walk, the one a single
// node runs (engine.SampleShards): the coordinator contributes one
// remote runner per shard — the Shard.Segment call, batch decoding,
// shard-health bookkeeping and a trace span per segment — and the walk
// chains the global block cursor through stateless per-shard segments
// (engine.RunShardSegment). Because chunk commits and FastMatch marking
// tiles are anchored to block indices, shard files whose block counts
// are multiples of engine.ChunkBlocks (and, for FastMatch, of the
// lookahead) hand segments off exactly at the positions the single-node
// walk would have committed — making a K-shard answer byte-identical to
// a single node over the concatenated data. The equivalence suite
// enforces this. Exact scans and candidate-target resolution fold one
// segment per shard with the same engine.Guard a single node uses.
//
// Robustness is degraded-but-honest: a shard that dies mid-run has its
// remaining blocks treated as consumed-with-zero-contribution, the
// answer is marked Partial with the missing shard named, and totals
// only ever count data actually read — never an error, never a wrong
// total.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"fastmatch/internal/core"
	"fastmatch/internal/engine"
	"fastmatch/internal/histogram"
	"fastmatch/internal/obs/trace"
)

// Shard is one member of a coordinated table: it answers plan metadata
// and stateless segment calls for the coordinator's current query. The
// HTTP implementation is Client.Bind; tests use in-process shards.
type Shard interface {
	Name() string
	Meta(ctx context.Context) (*engine.ShardMeta, error)
	Segment(ctx context.Context, seg *engine.ShardSegment) (*engine.ShardSegmentResult, error)
}

// ShardStatus reports one shard's health after a coordinated run.
type ShardStatus struct {
	Name    string `json:"name"`
	Healthy bool   `json:"healthy"`
	Error   string `json:"error,omitempty"`
	// Segments counts segment calls issued to this shard during the run.
	Segments int64 `json:"segments"`
	Blocks   int   `json:"blocks,omitempty"`
	Rows     int   `json:"rows,omitempty"`
}

// Result is a coordinated answer: the engine result plus per-shard
// status. Degraded runs carry Partial results with every missing shard
// named.
type Result struct {
	Result *engine.Result
	Shards []ShardStatus
	// Missing names the shards that did not contribute (dead at connect
	// or mid-run). Non-empty iff Degraded.
	Missing  []string
	Degraded bool
}

// Coordinator owns an ordered shard set; shard order defines the global
// block space (shard 0's blocks first). It is stateless across runs and
// safe for concurrent use.
type Coordinator struct {
	shards []Shard
}

// New builds a coordinator over the given shards. Order matters: it is
// the global block order, which must match the row-range partition.
func New(shards ...Shard) *Coordinator {
	return &Coordinator{shards: shards}
}

// Shards returns the configured shard set.
func (c *Coordinator) Shards() []Shard { return c.shards }

// Run answers a query across the shard set with the same contract as
// Plan.RunContext: typed interruption errors alongside best-effort
// partial results, progress through opts.OnProgress, tracing through
// opts.Trace (one child span per shard segment).
func (c *Coordinator) Run(ctx context.Context, t engine.Target, opts engine.Options) (*Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	st, err := c.connect(ctx, opts)
	if err != nil {
		return nil, err
	}
	if err := st.guard.Stop(); err != nil {
		return nil, err
	}
	rsp := opts.Trace.Start("resolve_target")
	target, err := st.resolveTarget(ctx, t)
	rsp.End()
	if err != nil {
		return nil, err
	}
	return st.run(ctx, target)
}

// shardRun is one shard's per-run state, owned by the coordinator.
type shardRun struct {
	shard    Shard
	meta     *engine.ShardMeta
	dead     bool
	errMsg   string
	segments int64
}

// runState is the per-run coordinator state: validated metas, the run's
// termination guard, and degraded-mode bookkeeping.
type runState struct {
	opts  engine.Options
	guard *engine.Guard

	shards []*shardRun // all configured shards, in global block order
	walk   []*shardRun // live-at-connect shards: the global block space

	ref       *engine.ShardMeta // the plan domain every live shard shares
	totalRows int64

	degraded bool
}

func (c *Coordinator) connect(ctx context.Context, opts engine.Options) (*runState, error) {
	if len(c.shards) == 0 {
		return nil, errors.New("cluster: no shards configured")
	}
	st := &runState{
		opts:   opts,
		guard:  engine.NewGuard(ctx, opts),
		shards: make([]*shardRun, len(c.shards)),
	}
	var wg sync.WaitGroup
	for i, sh := range c.shards {
		sr := &shardRun{shard: sh}
		st.shards[i] = sr
		wg.Add(1)
		go func() {
			defer wg.Done()
			meta, err := sh.Meta(ctx)
			if err != nil {
				sr.dead = true
				sr.errMsg = err.Error()
				return
			}
			sr.meta = meta
		}()
	}
	wg.Wait()

	var ref *engine.ShardMeta
	for _, sr := range st.shards {
		if sr.dead {
			st.degraded = true
			continue
		}
		m := sr.meta
		if ref == nil {
			ref = m
		} else if err := metaMatch(ref, m); err != nil {
			return nil, fmt.Errorf("cluster: shard %q: %w", sr.shard.Name(), err)
		}
		st.walk = append(st.walk, sr)
		st.totalRows += int64(m.Rows)
	}
	if ref == nil {
		return nil, fmt.Errorf("cluster: all %d shards unreachable", len(c.shards))
	}
	st.ref = ref
	return st, nil
}

// metaMatch validates that two shards expose the same plan domain: the
// merge algebra is only sound over identical candidate and group spaces
// (dictionary-driven IDs — datagen -shards shares full dictionaries so
// this holds by construction).
func metaMatch(a, b *engine.ShardMeta) error {
	switch {
	case a.BlockSize != b.BlockSize:
		return fmt.Errorf("block size %d differs from %d", b.BlockSize, a.BlockSize)
	case a.Candidates != b.Candidates:
		return fmt.Errorf("candidate domain %d differs from %d", b.Candidates, a.Candidates)
	case a.Groups != b.Groups:
		return fmt.Errorf("group count %d differs from %d", b.Groups, a.Groups)
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			return fmt.Errorf("candidate %d is %q, expected %q (shards must share dictionaries)", i, b.Labels[i], a.Labels[i])
		}
	}
	for i := range a.GroupLabels {
		if a.GroupLabels[i] != b.GroupLabels[i] {
			return fmt.Errorf("group %d is %q, expected %q (shards must share dictionaries)", i, b.GroupLabels[i], a.GroupLabels[i])
		}
	}
	return nil
}

func (st *runState) labelOf(i int) string { return st.ref.Labels[i] }

// newBatch allocates an empty global batch over the candidate domain.
func (st *runState) newBatch() *core.Batch {
	return &core.Batch{Counts: make([]int64, st.ref.Candidates), Hists: make([]*histogram.Histogram, st.ref.Candidates)}
}

// sequential reports whether segment fan-out must be sequential to
// preserve determinism: budget and deadline stops are charged in block
// order, so concurrent shards would race the stop point.
func (st *runState) sequential() bool {
	return st.opts.RowBudget > 0 || !st.opts.Deadline.IsZero()
}

func (st *runState) markDead(sr *shardRun, err error) {
	sr.dead = true
	sr.errMsg = err.Error()
	st.degraded = true
}

// resolveTarget is Plan.resolveTarget across the shard set: the same
// engine.TargetHistogram, with candidate targets resolved by an exact
// scatter-gather scan of the candidate's blocks. Target I/O is
// excluded from the run's IOStats (the single-node contract) but its
// rows are charged against the budget, exactly as the shared guard
// charges them intra-node.
func (st *runState) resolveTarget(ctx context.Context, t engine.Target) (*histogram.Histogram, error) {
	return engine.TargetHistogram(t, st.ref.Groups, st.ref.Candidates, st.labelOf, func(id int) (*histogram.Histogram, error) {
		return st.resolveCandidateTarget(ctx, id)
	})
}

// resolveCandidateTarget sums the candidate's exact local histograms. A
// shard failure here is an error, not degradation: a target missing a
// shard's rows would silently change the question being asked (the
// single-node analogue — an interrupted target scan — errors too).
func (st *runState) resolveCandidateTarget(ctx context.Context, id int) (*histogram.Histogram, error) {
	h := histogram.New(st.ref.Groups)
	fold := func(sr *shardRun, _ *engine.ShardSegment, res *engine.ShardSegmentResult, err error) error {
		var part *core.Batch
		if err == nil {
			part, err = core.DecodeBatch(res.Batch)
		}
		if err != nil {
			return fmt.Errorf("cluster: target resolution on shard %q: %w", sr.shard.Name(), err)
		}
		sr.segments++
		if err := st.guard.Charge(part.Drawn, res.Stopped); err != nil {
			return err
		}
		if ph := part.Hists[id]; ph != nil {
			if err := h.AddHistogram(ph); err != nil {
				return fmt.Errorf("cluster: target resolution on shard %q: %w", sr.shard.Name(), err)
			}
		}
		return nil
	}
	mkReq := func() *engine.ShardSegment {
		req := &engine.ShardSegment{
			Kind:            engine.SegTarget,
			Workers:         st.opts.Workers,
			TargetCandidate: id,
		}
		st.guard.Limit(req)
		return req
	}
	if err := st.scatter(ctx, st.sequential(), mkReq, fold); err != nil {
		return nil, err
	}
	return h, nil
}

// run executes the query against a resolved target, mirroring
// Plan.runWithTarget.
func (st *runState) run(ctx context.Context, target *histogram.Histogram) (*Result, error) {
	opts := st.opts
	if target.Groups() != st.ref.Groups {
		return nil, fmt.Errorf("engine: target has %d groups, query produces %d", target.Groups(), st.ref.Groups)
	}
	began := time.Now()
	runSpan := opts.Trace.StartAt("run", began)
	runSpan.SetAttr("executor", opts.Executor.String())
	runSpan.SetAttr("shards", len(st.shards))
	defer runSpan.End()
	cross, frac := opts.Crossover(st.totalRows, st.ref.Groups)
	runSpan.SetAttr("crossover", cross)
	runSpan.SetAttr("predicted_fraction", frac)
	if cross || opts.Executor == engine.Scan {
		return st.runScan(ctx, target, began, runSpan, cross)
	}
	// A sampling segment is one Shard.Segment call decoded here. The walk
	// folds a lost shard's unread blocks in as consumed with nothing
	// drawn, and the result below is forced Partial with the shard named.
	metas := make([]*engine.ShardMeta, len(st.walk))
	for i, sr := range st.walk {
		metas[i] = sr.meta
	}
	call := func(i int, req *engine.ShardSegment) (*engine.ShardSegmentResult, *core.Batch, error) {
		res, err := st.walk[i].shard.Segment(ctx, req)
		part, err := st.decode(st.walk[i], req, res, err, runSpan, false)
		return res, part, err
	}
	lost := func(i int, err error) { st.markDead(st.walk[i], err) }
	res, err := engine.SampleShards(metas, call, lost, st.degraded, target, opts, st.guard, began, runSpan)
	if res == nil {
		return nil, err
	}
	if st.degraded {
		// Degraded-but-honest: totals only count data actually read, but
		// no exactness or guarantee can be claimed.
		res.Exact = false
		res.Partial = true
	}
	return st.finish(res), err
}

// decode turns one shard segment answer into its batch. A failed call or
// an undecodable batch marks the shard dead. Every call gets a trace
// span; exact-scan spans carry the segment's IO.
func (st *runState) decode(sr *shardRun, req *engine.ShardSegment, res *engine.ShardSegmentResult, err error, runSpan *trace.Span, withIO bool) (*core.Batch, error) {
	var part *core.Batch
	if err == nil {
		part, err = core.DecodeBatch(res.Batch)
	}
	sr.segments++
	if err != nil {
		st.markDead(sr, err)
		res = nil
	}
	shardSpan(runSpan, sr, req, res, withIO)
	return part, err
}

// finish attaches per-shard statuses to the engine result.
func (st *runState) finish(res *engine.Result) *Result {
	out := &Result{Result: res, Degraded: st.degraded}
	for _, sr := range st.shards {
		s := ShardStatus{
			Name:     sr.shard.Name(),
			Healthy:  !sr.dead,
			Error:    sr.errMsg,
			Segments: sr.segments,
		}
		if sr.meta != nil {
			s.Blocks = sr.meta.Blocks
			s.Rows = sr.meta.Rows
		}
		out.Shards = append(out.Shards, s)
		if sr.dead {
			out.Missing = append(out.Missing, sr.shard.Name())
		}
	}
	return out
}

// scatter issues one segment per live shard and folds the answers on
// the caller's goroutine, in shard order, until a fold fails. Unchained,
// the segments fan out concurrently: the folds are integer-sum merges, so
// their order does not matter. Chained, the shards run one at a time and
// the guard is checked before each segment, so a budget or deadline stop
// lands on the block a single node would stop at.
func (st *runState) scatter(ctx context.Context, chain bool, mkReq func() *engine.ShardSegment,
	fold func(*shardRun, *engine.ShardSegment, *engine.ShardSegmentResult, error) error) error {
	reqs := make([]*engine.ShardSegment, len(st.walk))
	ress := make([]*engine.ShardSegmentResult, len(st.walk))
	errs := make([]error, len(st.walk))
	call := func(i int) {
		reqs[i] = mkReq()
		ress[i], errs[i] = st.walk[i].shard.Segment(ctx, reqs[i])
	}
	var wg sync.WaitGroup
	for i := range st.walk {
		if !chain {
			wg.Add(1)
			go func() { defer wg.Done(); call(i) }()
		}
	}
	wg.Wait()
	for i, sr := range st.walk {
		if chain {
			if err := st.guard.Stop(); err != nil {
				return err
			}
			call(i)
		}
		if err := fold(sr, reqs[i], ress[i], errs[i]); err != nil {
			return err
		}
	}
	return nil
}

// shardSpan records a segment call's trace child. Sampling segments are
// attribute-only (phase spans own the IO deltas); exact-scan segments
// carry their IO so the span tree sums to the run's total.
func shardSpan(runSpan *trace.Span, sr *shardRun, req *engine.ShardSegment, res *engine.ShardSegmentResult, withIO bool) {
	if runSpan == nil {
		return
	}
	sp := runSpan.Child("shard:" + sr.shard.Name())
	sp.SetAttr("kind", string(req.Kind))
	if res != nil {
		sp.SetAttr("visited", res.Visited)
		if withIO {
			sp.SetIO(engine.TraceIO(res.IO))
		}
	} else {
		sp.SetAttr("error", sr.errMsg)
	}
	sp.End()
}
