package engine

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"time"

	"fastmatch/internal/bitmap"
	"fastmatch/internal/core"
	"fastmatch/internal/histogram"
)

// Distributed shard segments
//
// A cluster coordinator (internal/cluster) runs one logical query over
// the concatenated blocks of N row-range shards, each served by its own
// fastmatchd. A sampling run is the walk a single node runs (walk.go)
// with one remote runner per shard: each segment is one stateless call
// into this file, carrying the walk's state in (cursor, the shard's
// consumed bitmap, deficits, residual budget) and returning it updated
// plus a mergeable core.Batch partial, computed by the same
// blockSampler.segment a single node's in-process runner calls.
//
// Byte-identity with a single node over the concatenated data rests on
// three alignment facts, all enforced elsewhere and assumed here:
//
//   - chunk commits happen at fixed block-index positions (sampler.go),
//     so when every shard's block count is a multiple of ChunkBlocks,
//     a segment handoff commits exactly where the single-node walk
//     would;
//   - FastMatch lookahead tiles are anchored to block indices
//     (sampler.go), so shard boundaries that are also tile boundaries
//     preserve the marking schedule;
//   - candidate and group IDs are dictionary-driven, so shards built
//     with shared full dictionaries (datagen -shards) expose identical
//     candidate domains, group counts, and labels.
//
// Segments are idempotent: re-running a segment from the same request
// state returns the same response, so a coordinator may retry a failed
// call safely.

// SegmentKind selects what a shard segment executes.
type SegmentKind string

const (
	// SegStage1 reads sequentially until the residual stage-1 target is
	// met (no AnyActive).
	SegStage1 SegmentKind = "stage1"
	// SegRound runs one shard-local slice of a stage-2/stage-3 deficit
	// round under the executor's block policy.
	SegRound SegmentKind = "round"
	// SegScan runs the exact-pass executor over the whole shard.
	SegScan SegmentKind = "scan"
	// SegTarget resolves one candidate's exact local histogram.
	SegTarget SegmentKind = "target"
)

// ChunkBlocks returns the chunk-commit granularity (in blocks) the
// sampling planner uses for the given block size. Shard files whose
// block counts are multiples of this value hand off segments exactly at
// commit boundaries; datagen -shards aligns shard sizes with it.
func ChunkBlocks(blockSize int) int {
	if blockSize <= 0 {
		return samplerChunkMinBlocks
	}
	c := samplerChunkRows / blockSize
	if c < samplerChunkMinBlocks {
		c = samplerChunkMinBlocks
	}
	if c > samplerChunkMaxBlocks {
		c = samplerChunkMaxBlocks
	}
	return c
}

// ShardMeta describes a plan's shape on one shard. The coordinator
// cross-checks metas (candidate/group domains must agree across shards)
// and uses the per-candidate Absent flags as the initial local-exhaustion
// state for exactness inference.
type ShardMeta struct {
	Rows       int    `json:"rows"`
	Blocks     int    `json:"blocks"`
	BlockSize  int    `json:"block_size"`
	Candidates int    `json:"candidates"`
	Groups     int    `json:"groups"`
	ChunkBlk   int    `json:"chunk_blocks"`
	Generation uint64 `json:"generation,omitempty"`
	// Labels / GroupLabels name candidates and groups by id; the
	// coordinator requires them to be identical on every shard.
	Labels      []string `json:"labels"`
	GroupLabels []string `json:"group_labels"`
	// Absent flags candidates provably absent from this shard (their
	// block bitsets are empty): locally exhausted before any sampling.
	Absent []bool `json:"absent,omitempty"`
}

// ShardMeta reports the plan's local shape for coordinator validation.
func (p *Plan) ShardMeta() ShardMeta {
	n := p.cand.numCandidates()
	m := ShardMeta{
		Rows:        p.engine.src.NumRows(),
		Blocks:      p.engine.src.NumBlocks(),
		BlockSize:   p.engine.src.BlockSize(),
		Candidates:  n,
		Groups:      p.grp.groups(),
		ChunkBlk:    ChunkBlocks(p.engine.src.BlockSize()),
		GroupLabels: groupLabels(p.grp),
	}
	m.Labels = make([]string, n)
	m.Absent = make([]bool, n)
	for i := 0; i < n; i++ {
		m.Labels[i] = p.cand.labelOf(i)
		if cb := p.cand.candidateBlocks(i); cb != nil && cb.Count() == 0 {
			m.Absent[i] = true
		}
	}
	return m
}

// ShardSegment is one stateless shard-local slice of a global run. The
// coordinator owns all cross-segment state and threads it through here.
type ShardSegment struct {
	Kind SegmentKind `json:"kind"`

	// Run knobs. They must match the single-node options the coordinated
	// run is equivalent to; Workers is throughput-only as everywhere else.
	Executor           Executor `json:"executor"`
	Lookahead          int      `json:"lookahead,omitempty"`
	Workers            int      `json:"workers,omitempty"`
	DisableBlockSkip   bool     `json:"disable_block_skip,omitempty"`
	DisableScanKernels bool     `json:"disable_scan_kernels,omitempty"`

	// Sampling walk state (SegStage1 / SegRound).
	Cursor int `json:"cursor"`
	// Consumed is the shard-local consumed bitmap as raw words,
	// little-endian bit order (bitmap.Bitset words).
	Consumed      []uint64 `json:"consumed,omitempty"`
	ConsumedCount int      `json:"consumed_count"`
	// Visits bounds this pass's remaining cursor visits globally;
	// GlobalBlocks and OthersConsumed feed the global all-consumed test.
	Visits         int `json:"visits"`
	GlobalBlocks   int `json:"global_blocks"`
	OthersConsumed int `json:"others_consumed"`

	// Stage1Need is the residual stage-1 drawn target (SegStage1).
	Stage1Need int `json:"stage1_need,omitempty"`
	// Deficits are the residual per-candidate sample demands (SegRound).
	Deficits map[int]int64 `json:"deficits,omitempty"`

	// Residual termination state: RowBudget ≤ 0 means unlimited (the
	// coordinator never forwards an exhausted budget — it synthesizes the
	// stop itself), Deadline zero means none.
	RowBudget int64     `json:"row_budget,omitempty"`
	Deadline  time.Time `json:"deadline,omitempty"`

	// TargetCandidate is the candidate id to resolve (SegTarget).
	TargetCandidate int `json:"target_candidate,omitempty"`
}

// Segment stop reasons, the wire form of the guard's typed errors.
const (
	SegStopBudget   = "budget"
	SegStopDeadline = "deadline"
	SegStopCanceled = "canceled"
)

// ShardSegmentResult carries a segment's mergeable partial plus the
// updated walk state the coordinator threads into the next segment.
type ShardSegmentResult struct {
	// Batch is the core.EncodeBatch partial: fresh samples for sampling
	// segments; for SegScan/SegTarget the local exact histograms with
	// Drawn holding the rows charged to the budget guard.
	Batch []byte  `json:"batch"`
	IO    IOStats `json:"io"`
	// Visited counts cursor visits consumed (sampling segments).
	Visited       int      `json:"visited"`
	Cursor        int      `json:"cursor"`
	Consumed      []uint64 `json:"consumed,omitempty"`
	ConsumedCount int      `json:"consumed_count"`
	// Deficits are the demands still unmet after this segment (SegRound).
	Deficits map[int]int64 `json:"deficits,omitempty"`
	// LocalExhausted flags candidates with no unconsumed local blocks
	// left (every sampling segment); the coordinator ANDs the freshest
	// flags across shards for exactness inference.
	LocalExhausted []bool `json:"local_exhausted,omitempty"`
	// Stopped is "" for a completed segment, else a SegStop* reason.
	Stopped string `json:"stopped,omitempty"`
}

// RunShardSegment executes one shard segment against this plan. It is
// stateless with respect to the plan (safe for concurrent segments) and
// idempotent with respect to the request.
func (p *Plan) RunShardSegment(ctx context.Context, req *ShardSegment) (*ShardSegmentResult, error) {
	switch req.Kind {
	case SegStage1, SegRound:
		return p.runSampleSegment(ctx, req)
	case SegScan:
		return p.runScanSegment(ctx, req)
	case SegTarget:
		return p.runTargetSegment(ctx, req)
	default:
		return nil, fmt.Errorf("engine: unknown segment kind %q", req.Kind)
	}
}

// segGuard builds the run guard for a segment from the residual
// termination state.
func segGuard(ctx context.Context, req *ShardSegment) *Guard {
	return NewGuard(ctx, Options{Deadline: req.Deadline, RowBudget: req.RowBudget})
}

func (p *Plan) runSampleSegment(ctx context.Context, req *ShardSegment) (*ShardSegmentResult, error) {
	nb := p.engine.src.NumBlocks()
	consumed := bitsetFromWords(nb, req.Consumed)
	switch {
	case req.Executor != ScanMatch && req.Executor != SyncMatch && req.Executor != FastMatch:
		return nil, fmt.Errorf("engine: segment executor %v does not sample", req.Executor)
	case req.Cursor < 0 || req.Cursor > nb:
		return nil, fmt.Errorf("engine: segment cursor %d outside [0, %d]", req.Cursor, nb)
	case req.Visits < 0:
		return nil, fmt.Errorf("engine: segment visits %d < 0", req.Visits)
	case req.Kind == SegStage1 && req.Stage1Need < 0:
		return nil, fmt.Errorf("engine: segment stage-1 need %d < 0", req.Stage1Need)
	case req.ConsumedCount != consumed.Count():
		return nil, fmt.Errorf("engine: segment consumed count %d, bitmap holds %d", req.ConsumedCount, consumed.Count())
	case req.OthersConsumed < 0 || req.GlobalBlocks < nb+req.OthersConsumed:
		return nil, fmt.Errorf("engine: segment global blocks %d cannot hold %d local and %d consumed elsewhere", req.GlobalBlocks, nb, req.OthersConsumed)
	}
	bs := p.newSampler(*req, segGuard(ctx, req))
	bs.consumed = consumed
	bs.consCnt = req.ConsumedCount
	out, err := bs.segment(req)
	if err != nil {
		return nil, err
	}
	res := &ShardSegmentResult{
		Batch:         core.EncodeBatch(out.batch),
		IO:            out.io,
		Visited:       out.visited,
		Cursor:        out.cursor,
		Consumed:      bitsetWords(bs.consumed),
		ConsumedCount: out.consumed,
		Deficits:      out.deficits,
		Stopped:       stopReason(out.stop),
	}
	// Local-exhaustion flags for every sampling segment (stage 1 consumes
	// blocks too): the coordinator's runner keeps the freshest flags, and
	// a shard's flags only change when one of its own segments runs.
	res.LocalExhausted = make([]bool, p.cand.numCandidates())
	for i := range res.LocalExhausted {
		res.LocalExhausted[i] = bs.exhausted(i)
	}
	return res, nil
}

func (p *Plan) runScanSegment(ctx context.Context, req *ShardSegment) (*ShardSegmentResult, error) {
	hists, io, rows, stopErr := p.newScanExec(*req, segGuard(ctx, req)).run(nil, -1)
	return &ShardSegmentResult{
		Batch:   core.EncodeBatch(scanBatch(hists, rows)),
		IO:      io,
		Stopped: stopReason(stopErr),
	}, nil
}

func (p *Plan) runTargetSegment(ctx context.Context, req *ShardSegment) (*ShardSegmentResult, error) {
	id := req.TargetCandidate
	if id < 0 || id >= p.cand.numCandidates() {
		return nil, fmt.Errorf("engine: segment target candidate %d out of range", id)
	}
	ex := p.newScanExec(ShardSegment{Workers: req.Workers, DisableBlockSkip: true}, segGuard(ctx, req))
	hists, _, rows, stopErr := ex.run(p.cand.candidateBlocks(id), id)
	batch := &core.Batch{
		Drawn:  rows,
		Counts: make([]int64, len(hists)),
		Hists:  make([]*histogram.Histogram, len(hists)),
	}
	batch.Counts[id] = int64(hists[id].Total())
	batch.Hists[id] = hists[id]
	return &ShardSegmentResult{
		Batch:   core.EncodeBatch(batch),
		Stopped: stopReason(stopErr),
	}, nil
}

// scanBatch packs an exact pass's histograms into the mergeable Batch
// envelope: Drawn carries the guard-charged rows (pruned blocks
// included), Counts the per-candidate totals.
func scanBatch(hists []*histogram.Histogram, rows int64) *core.Batch {
	b := &core.Batch{Drawn: rows, Counts: make([]int64, len(hists)), Hists: hists}
	for i, h := range hists {
		b.Counts[i] = int64(h.Total())
	}
	return b
}

func stopReason(err error) string {
	switch {
	case err == nil:
		return ""
	case isBudget(err):
		return SegStopBudget
	case errors.Is(err, context.DeadlineExceeded):
		return SegStopDeadline
	default:
		return SegStopCanceled
	}
}

// bitsetWords snapshots a bitset's backing words for the wire.
func bitsetWords(b *bitmap.Bitset) []uint64 {
	out := make([]uint64, b.NumWords())
	for w := range out {
		out[w] = b.Word(w)
	}
	return out
}

// bitsetFromWords rebuilds an n-bit bitset from wire words; bits beyond
// n are dropped.
func bitsetFromWords(n int, words []uint64) *bitmap.Bitset {
	bs := bitmap.NewBitset(n)
	for w, word := range words {
		for word != 0 {
			j := bits.TrailingZeros64(word)
			if i := w*64 + j; i < n {
				bs.Set(i)
			}
			word &^= 1 << uint(j)
		}
	}
	return bs
}
