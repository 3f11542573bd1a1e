package engine

import (
	"fmt"
	"math/rand"
	"time"

	"fastmatch/internal/core"
	"fastmatch/internal/histogram"
	"fastmatch/internal/obs/trace"
)

// The sampling walk
//
// walk is the engine's only core.Sampler. Its block space is the
// concatenation of an ordered list of segment runners, and it runs every
// sampling pass (Stage1 and each SampleUntil round) as a chain of
// segments: a segment walks one runner's blocks from the cursor until the
// pass or the runner's blocks end, then the walk moves to the next runner,
// wrapping past the last. The walk owns what is global — the pass's visit
// budget and break conditions, the wrap, the consumed total, exactness
// inference — and a runner owns its blocks. A single-node run is a
// one-runner chain over a persistent in-process blockSampler that shares
// the run's Guard; a coordinated run (package cluster) chains one remote
// runner per shard. Chunk commits and FastMatch tiles sit at fixed
// block-index positions (sampler.go), so a chain whose runner sizes are
// multiples of ChunkBlocks decides exactly as one runner over the
// concatenated blocks.

// segmentRunner executes the walk's segments over one runner's blocks.
type segmentRunner interface {
	// segment runs one slice of a pass from the walk state in req; an
	// error loses the runner for the rest of the run.
	segment(req *ShardSegment) (*segmentOut, error)
	// exhausted reports whether candidate id has no unconsumed rows left
	// among the runner's blocks.
	exhausted(id int) bool
}

// segmentOut is a segment's partial and the runner's state after it.
type segmentOut struct {
	batch    *core.Batch
	io       IOStats
	visited  int // cursor visits consumed
	cursor   int
	consumed int // the runner's consumed-block count
	deficits map[int]int64
	stop     error
}

type walkPart struct {
	run              segmentRunner
	blocks, consumed int
	dead             bool
}

type walk struct {
	parts         []*walkPart
	nCand, groups int
	rows          int64
	blocks        int
	guard         *Guard
	knobs         ShardSegment  // run knobs every segment request carries
	local         *blockSampler // the runner of a single-node walk, else nil
	degraded      bool          // a runner was lost: claim no exactness

	part, cursor int // runner index and its local cursor
	consumed     int // blocks consumed across all runners
	exact        []bool
	io           IOStats
}

func newWalk(nCand, groups int, guard *Guard, knobs ShardSegment) *walk {
	return &walk{nCand: nCand, groups: groups, guard: guard, knobs: knobs, exact: make([]bool, nCand)}
}

func (w *walk) add(r segmentRunner, blocks int, rows int64) {
	w.parts = append(w.parts, &walkPart{run: r, blocks: blocks})
	w.blocks += blocks
	w.rows += rows
}

// newLocalWalk is the single-node walk: one in-process runner.
func newLocalWalk(bs *blockSampler) *walk {
	w := newWalk(bs.cand.numCandidates(), bs.grp.groups(), bs.guard, ShardSegment{})
	w.add(bs, bs.src.NumBlocks(), int64(bs.rows))
	w.local = bs
	return w
}

// seek places the cursor on the run's start block: startBlock modulo the
// block space, or a block drawn from seed when startBlock is negative
// (the paper starts each run at a random position).
func (w *walk) seek(startBlock int, seed int64) {
	start := 0
	if w.blocks > 0 {
		if startBlock < 0 {
			start = rand.New(rand.NewSource(seed)).Intn(w.blocks)
		} else {
			start = startBlock % w.blocks
		}
	}
	for i, p := range w.parts {
		if start < p.blocks {
			w.part, w.cursor = i, start
			return
		}
		start -= p.blocks
	}
}

// NumCandidates implements core.Sampler.
func (w *walk) NumCandidates() int { return w.nCand }

// Groups implements core.Sampler.
func (w *walk) Groups() int { return w.groups }

// TotalRows implements core.Sampler. A coordinated walk counts only the
// shards live at connect: stage-1 p-values reason about reachable data.
func (w *walk) TotalRows() int64 { return w.rows }

// Stats returns the summed segment I/O plus the walk's wraps. Segments
// run on the caller's goroutine, so it reads settled counters.
func (w *walk) Stats() IOStats { return w.io }

func (w *walk) allConsumed() bool { return w.consumed >= w.blocks }

func (w *walk) seal(b *core.Batch) *core.Batch {
	b.Exhausted = w.allConsumed()
	b.Exact = append([]bool(nil), w.exact...)
	if b.Exhausted {
		for i := range b.Exact {
			b.Exact[i] = true
		}
	}
	return b
}

// Stage1 implements core.Sampler: whole-block reads in cursor order until
// at least m tuples have been drawn. A guard stop returns the partial
// batch with the termination error (wrapping core.ErrInterrupted).
func (w *walk) Stage1(m int) (*core.Batch, error) {
	batch := newBatch(w.nCand)
	err := w.pass(batch, m, nil)
	return w.seal(batch), err
}

// SampleUntil implements core.Sampler: one deficit round under the
// executor's block policy.
func (w *walk) SampleUntil(need map[int]int) (*core.Batch, error) {
	batch := newBatch(w.nCand)
	deficits := make(map[int]int64)
	for id, n := range need {
		if id < 0 || id >= w.nCand {
			return nil, fmt.Errorf("engine: need for unknown candidate %d", id)
		}
		if n > 0 && !w.exact[id] {
			deficits[id] = int64(n)
		}
	}
	if len(deficits) == 0 {
		return w.seal(batch), nil
	}
	if stopErr := w.pass(batch, -1, deficits); stopErr != nil {
		// Exactness inference needs a completed pass.
		return w.seal(batch), stopErr
	}
	// A candidate still in deficit after a full pass has no tuples left
	// in unconsumed blocks (AnyActive is sound), so its estimate is exact
	// — unless a runner was lost and its blocks only folded in.
	if !w.degraded {
		for id, def := range deficits {
			if def > 0 && w.exhaustedEverywhere(id) {
				w.exact[id] = true
			}
		}
	}
	return w.seal(batch), nil
}

// exhaustedEverywhere ANDs the runners' reports; a runner's state only
// changes in its own segments, so every report is current.
func (w *walk) exhaustedEverywhere(id int) bool {
	for _, p := range w.parts {
		if !p.run.exhausted(id) {
			return false
		}
	}
	return true
}

// pass is one sampling pass over the global block space. stage1Need ≥ 0
// selects stage-1 mode (deficits nil); stage1Need < 0 selects deficit
// mode (deficits is the live residual map, updated in place). The break
// conditions — drawn target or unmet deficits, all blocks consumed, the
// pass's visit budget, the guard — are checked in that order before
// every segment, and a segment checks the same ones before every block.
func (w *walk) pass(batch *core.Batch, stage1Need int, deficits map[int]int64) error {
	if w.blocks == 0 {
		return nil
	}
	stage1 := stage1Need >= 0
	visits := w.blocks
	for {
		if stage1 {
			if batch.Drawn >= int64(stage1Need) {
				return nil
			}
		} else if unmetCount(deficits) == 0 {
			return nil
		}
		if w.allConsumed() || visits <= 0 {
			return nil
		}
		if err := w.guard.Stop(); err != nil {
			return err
		}
		p := w.parts[w.part]
		if p.dead {
			// A lost runner's blocks count as consumed: the walk passes
			// them like consumed blocks, one visit each, nothing read.
			visits -= p.blocks - w.cursor
			w.next()
			continue
		}
		if w.cursor >= p.blocks {
			w.next()
			continue
		}
		req := w.knobs
		req.Kind = SegRound
		req.Cursor = w.cursor
		req.ConsumedCount = p.consumed
		req.Visits = visits
		req.GlobalBlocks = w.blocks
		req.OthersConsumed = w.consumed - p.consumed
		if stage1 {
			req.Kind = SegStage1
			req.Stage1Need = stage1Need - int(batch.Drawn)
		} else {
			req.Deficits = deficits
		}
		out, err := p.run.segment(&req)
		if err != nil {
			// Degraded but honest: the lost runner's remaining blocks
			// count as consumed with nothing drawn, so totals only count
			// data actually read.
			p.dead, w.degraded = true, true
			visits -= p.blocks - w.cursor
			w.consumed += p.blocks - p.consumed
			p.consumed = p.blocks
			w.next()
			continue
		}
		if err := batch.Merge(out.batch); err != nil {
			return err
		}
		w.io.Add(out.io)
		w.consumed += out.consumed - p.consumed
		p.consumed, w.cursor = out.consumed, out.cursor
		visits -= out.visited
		for id := range deficits {
			deficits[id] = out.deficits[id]
		}
		if out.stop != nil {
			return out.stop
		}
		if w.cursor >= p.blocks {
			// Parked at the runner's end: move on now, counting a wrap
			// past the last runner even if the pass ends here.
			w.next()
		}
	}
}

// next moves to the next runner, wrapping to the first — and counting
// the wrap — past the last one.
func (w *walk) next() {
	w.part++
	w.cursor = 0
	if w.part >= len(w.parts) {
		w.part = 0
		w.io.Wraps++
	}
}

func unmetCount(deficits map[int]int64) int {
	n := 0
	for _, def := range deficits {
		if def > 0 {
			n++
		}
	}
	return n
}

func newBatch(nCand int) *core.Batch {
	return &core.Batch{Counts: make([]int64, nCand), Hists: make([]*histogram.Histogram, nCand)}
}

// run is the sampling half of every run, single-node or coordinated: it
// places the cursor, runs HistSim over the walk under the progress and
// trace observer, and assembles the Result.
func (w *walk) run(target *histogram.Histogram, opts Options, began time.Time, runSpan *trace.Span, grpLabels []string, labelOf func(int) string) (*Result, error) {
	if opts.Quality {
		// opts is a copy; CollectQuality is as fingerprint-neutral as
		// Options.Quality itself.
		opts.Params.CollectQuality = true
	}
	w.seek(opts.StartBlock, opts.Seed)
	obs, obsClose := runObserver(began, opts, w.Stats, labelOf, runSpan)
	defer obsClose()
	coreRes, err := core.RunObserved(w, target, opts.Params, obs)
	bs := w.local
	if bs != nil && opts.Trace != nil && len(bs.wBlocks) > 1 {
		// Per-worker sampler spans, attribute-only: phase spans already
		// carry the run's full IO as deltas, so worker spans must not
		// repeat it (the span tree's IO sums to Result.IO).
		for i := range bs.wBlocks {
			sp := runSpan.Child(fmt.Sprintf("sampler.worker%d", i))
			sp.SetAttr("blocks", bs.wBlocks[i])
			sp.SetAttr("tuples", bs.wTuples[i])
			sp.End()
		}
	}
	if err != nil && (coreRes == nil || !interrupted(err)) {
		return nil, err
	}
	res := samplingResult(coreRes, w.Stats(), time.Since(began), grpLabels, labelOf)
	if bs != nil {
		res.Sampler = &SamplerStats{Workers: len(bs.wBlocks), Chunks: bs.chunks, WorkerBlocks: bs.wBlocks, WorkerTuples: bs.wTuples}
	}
	return res, err
}

// SampleShards answers a sampling executor's run over a coordinated table
// with the walk a single node runs: one remote runner per live shard, in
// global block order (metas must agree on the candidate and group
// domains). call(i, seg) runs a sampling segment on shard i and returns
// its result with the decoded batch; an error loses the shard for the rest
// of the run. degraded reports shards lost before the run. Progress,
// tracing and the Result are assembled exactly as Plan.RunContext does.
func SampleShards(metas []*ShardMeta, call func(int, *ShardSegment) (*ShardSegmentResult, *core.Batch, error),
	degraded bool, target *histogram.Histogram, opts Options, guard *Guard, began time.Time, runSpan *trace.Span) (*Result, error) {
	ref := metas[0]
	w := newWalk(ref.Candidates, ref.Groups, guard, segmentKnobs(opts))
	w.degraded = degraded
	for i, m := range metas {
		r := &remoteRunner{shard: i, call: call, guard: guard, exh: make([]bool, ref.Candidates)}
		copy(r.exh, m.Absent)
		w.add(r, m.Blocks, int64(m.Rows))
	}
	return w.run(target, opts, began, runSpan, ref.GroupLabels, func(i int) string { return ref.Labels[i] })
}

// segmentKnobs are the run knobs a segment request carries.
func segmentKnobs(opts Options) ShardSegment {
	return ShardSegment{
		Executor:           opts.Executor,
		Lookahead:          opts.Lookahead,
		Workers:            opts.Workers,
		DisableBlockSkip:   opts.DisableBlockSkip,
		DisableScanKernels: opts.DisableScanKernels,
	}
}

// remoteRunner runs a coordinated walk's segments on one stateless shard,
// keeping the shard's slice of the consumed set and its last exhaustion
// report between segments.
type remoteRunner struct {
	shard    int
	call     func(int, *ShardSegment) (*ShardSegmentResult, *core.Batch, error)
	guard    *Guard
	consumed []uint64
	exh      []bool
}

func (r *remoteRunner) segment(req *ShardSegment) (*segmentOut, error) {
	req.Consumed = r.consumed
	r.guard.Limit(req)
	res, part, err := r.call(r.shard, req)
	if err != nil {
		return nil, err
	}
	r.consumed, r.exh = res.Consumed, res.LocalExhausted
	return &segmentOut{batch: part, io: res.IO, visited: res.Visited, cursor: res.Cursor,
		consumed: res.ConsumedCount, deficits: res.Deficits, stop: r.guard.Charge(part.Drawn, res.Stopped)}, nil
}

func (r *remoteRunner) exhausted(id int) bool { return r.exh[id] }
