package engine

import (
	"fmt"
	"sync"
	"sync/atomic"

	"fastmatch/internal/bitmap"
	"fastmatch/internal/colstore"
	"fastmatch/internal/core"
	"fastmatch/internal/histogram"
)

// Executor selects the block-selection strategy, mirroring the approaches
// compared in §5.2.
type Executor int

const (
	// Scan is the exact full-pass baseline (no sampling), read by
	// Options.Workers workers with identical results at any count.
	Scan Executor = iota
	// ScanMatch samples by scanning blocks sequentially with no skipping,
	// terminating when HistSim's criterion holds.
	ScanMatch
	// SyncMatch applies AnyActive per block with the last-committed
	// candidate states (Algorithm 2) — no lookahead.
	SyncMatch
	// FastMatch applies AnyActive with lookahead marking (Algorithm 3):
	// marking decisions are made for whole lookahead windows ahead of the
	// reads, decoupling the sampling engine from the I/O manager (§4.2
	// Challenge 4).
	FastMatch
)

// String implements fmt.Stringer.
func (e Executor) String() string {
	switch e {
	case Scan:
		return "Scan"
	case ScanMatch:
		return "ScanMatch"
	case SyncMatch:
		return "SyncMatch"
	case FastMatch:
		return "FastMatch"
	default:
		return fmt.Sprintf("Executor(%d)", int(e))
	}
}

// IOStats counts the I/O work a run performed.
type IOStats struct {
	// BlocksRead / BlocksSkipped count block-selection decisions:
	// AnyActive skips and zone-map prunes both land in BlocksSkipped.
	BlocksRead    int64 `json:"blocks_read"`
	BlocksSkipped int64 `json:"blocks_skipped"`
	// BlocksPruned counts the subset of BlocksSkipped proven row-free by
	// per-block statistics (zone maps) rather than by AnyActive.
	BlocksPruned int64 `json:"blocks_pruned"`
	// TuplesRead counts tuples consumed. Rows of pruned blocks are
	// charged to guards and sample accounting (so results stay
	// byte-identical with pruning off) but are NOT counted here: the
	// whole point of pruning is that they were never read.
	TuplesRead int64 `json:"tuples_read"`
	// KernelBlocks counts blocks accumulated by a vectorized scan kernel
	// instead of the scalar per-row path.
	KernelBlocks int64 `json:"kernel_blocks"`
	// Wraps counts cursor wrap-arounds over the block space.
	Wraps int64 `json:"wraps"`
}

// Add accumulates other into s: the mergeable-value fold for I/O
// counters, used by the per-worker merge and by serving layers
// aggregating per-run stats. Like core.Batch.Merge it is associative and
// commutative (integer sums), so per-partition stats folded in any order
// equal a single-stream count.
func (s *IOStats) Add(other IOStats) {
	s.BlocksRead += other.BlocksRead
	s.BlocksSkipped += other.BlocksSkipped
	s.BlocksPruned += other.BlocksPruned
	s.TuplesRead += other.TuplesRead
	s.KernelBlocks += other.KernelBlocks
	s.Wraps += other.Wraps
}

// Chunk-committed parallel sampling rounds
//
// Every segment of a sampling pass (see walk.go) is driven by a
// single-threaded *planner* that walks the block permutation making every
// policy decision — consumed-set skips, AnyActive probes, zone-map
// virtual skips, guard/budget checks — against *committed* state only.
// Blocks the planner decides to read are charged eagerly (Drawn, the
// guard's row budget, the consumed set) and appended to a read list;
// the list is dispatched to workers in chunks of samplerChunkRows-worth
// of blocks. Workers accumulate into private mergeable partials
// (core.Batch counts/histograms); at each chunk barrier the planner
// commits their fresh per-candidate counts into the deficit bookkeeping,
// and at round end the partials are merged in worker order via
// core.Batch.Merge.
//
// This plan-then-read structure is what makes results byte-identical for
// ANY worker count, including workers=1:
//
//   - every policy decision is made serially from committed state, so
//     the set and order of planned blocks never depends on worker
//     timing;
//   - every planned block is always read (a guard stop flushes the
//     pending chunk first), so no speculative work is ever discarded and
//     Drawn/IOStats count exactly the committed work;
//   - partials hold only integer-valued quantities, so the worker-order
//     merge is exact (see core.Batch.Merge).
//
// The price is that adaptive decisions — round termination when deficits
// are met, the active set AnyActive probes see — advance at chunk
// granularity instead of row granularity: a round may read up to one
// chunk (at most samplerChunkMaxBlocks blocks) past the point a
// fully-serial row-fresh policy would have stopped. That granularity is
// fixed per table (derived from the block size, never from the worker
// count), so it is part of the deterministic contract, and the Sampler
// interface explicitly permits the extra samples — they only sharpen the
// cumulative estimates.
//
// Chunk boundaries sit at fixed positions in block-index space — the
// planner commits after visiting any block b with (b+1) ≡ 0 (mod
// ChunkBlocks), not after accumulating a buffer's worth of reads — so
// the commit schedule is a pure function of the block indices walked,
// independent of how many blocks in a chunk were skipped. That is what
// lets the walk chain one cursor through several runners' segments:
// when runner boundaries fall on chunk boundaries, a segment handoff
// commits exactly where one runner over the concatenated blocks would
// have committed.
const (
	// samplerChunkRows sizes the commit granularity: chunks target this
	// many rows' worth of blocks.
	samplerChunkRows = 4096
	// samplerChunkMinBlocks / samplerChunkMaxBlocks clamp the chunk for
	// extreme block sizes.
	samplerChunkMinBlocks = 4
	samplerChunkMaxBlocks = 64
)

// blockSampler executes walk segments (walk.go) over a block-structured
// table: it owns the I/O manager (block reads) and the sampling engine
// (block selection policy). A single-node run keeps one for the whole
// run; a shard builds one per segment from the request (shardrun.go).
type blockSampler struct {
	src    colstore.Reader
	cand   candidateMapper
	multi  *predicateCandidates // non-nil iff candidates may overlap
	grp    groupMapper
	filter func(row int) bool
	mode   Executor

	guard     *Guard // nil when nothing enforces termination
	lookahead int
	consumed  *bitmap.Bitset
	consCnt   int
	cursor    int
	stats     IOStats
	blockSize int // cached: pruned blocks must not pay BlockSpan
	rows      int

	// workers is the read-fan-out width per chunk; ≤ 1 processes chunks
	// inline on the planner goroutine (no pool, no goroutines). Results
	// are byte-identical for every value — see the package comment above.
	workers int

	// Zone-map pruning masks (nil = no pruning). skipAll marks blocks
	// provably free of qualifying rows for every candidate — safe to
	// virtual-skip wherever a full read would happen (Stage1, ScanMatch).
	// skipGrp ⊆ skipAll marks only group-prunable blocks; it is the mask
	// SyncMatch/FastMatch apply AFTER their AnyActive probe (blocks
	// AnyActive already rejects are skipped without sample accounting,
	// and pruning them here instead would perturb Drawn).
	skipAll *bitmap.Bitset
	skipGrp *bitmap.Bitset

	// Devirtualized fast path for the dominant single-Z/single-X shape:
	// captured code slices replace the per-row interface dispatch of
	// groupOf/candidateOf. Workers additionally accumulate into flat
	// count cells (scanKernel-style) when the shape fits maxKernelCells,
	// folded exactly at round end.
	fastOK    bool
	fastZ     []uint32
	fastX     []uint32
	fastRemap []int // nil = identity

	// Round-local deficit bookkeeping, owned by the planner. active is
	// the committed unmet candidate set AnyActive probes and lookahead
	// marking read; it is refreshed at chunk commits, never mid-chunk.
	deficit []int64
	unmet   int
	active  []int

	// Per-worker diagnostics accumulated across rounds (run-scoped, not
	// part of the result: they are worker-count-dependent by nature).
	wBlocks []int64
	wTuples []int64
	chunks  int64

	// Walk state of the current segment (walk.go): the cursor parks at
	// NumBlocks (the walk owns the wrap), visits bound the segment, and
	// allConsumed counts the blocks consumed on other runners too.
	visits, globalBlocks, othersConsumed int
}

func newBlockSampler(src colstore.Reader, cand candidateMapper, grp groupMapper,
	filter func(int) bool, mode Executor, lookahead int, guard *Guard) *blockSampler {
	if lookahead <= 0 {
		lookahead = 1024
	}
	nb := src.NumBlocks()
	bs := &blockSampler{
		src:          src,
		cand:         cand,
		grp:          grp,
		filter:       filter,
		mode:         mode,
		guard:        guard,
		lookahead:    lookahead,
		workers:      1,
		consumed:     bitmap.NewBitset(nb),
		deficit:      make([]int64, cand.numCandidates()),
		blockSize:    src.BlockSize(),
		rows:         src.NumRows(),
		globalBlocks: nb,
	}
	if pc, ok := cand.(*predicateCandidates); ok {
		bs.multi = pc
	}
	return bs
}

// Stats returns a snapshot of the I/O counters. The counters are
// maintained with atomics (workers update them concurrently within a
// chunk).
func (bs *blockSampler) Stats() IOStats {
	return IOStats{
		BlocksRead:    atomic.LoadInt64(&bs.stats.BlocksRead),
		BlocksSkipped: atomic.LoadInt64(&bs.stats.BlocksSkipped),
		BlocksPruned:  atomic.LoadInt64(&bs.stats.BlocksPruned),
		TuplesRead:    atomic.LoadInt64(&bs.stats.TuplesRead),
		KernelBlocks:  atomic.LoadInt64(&bs.stats.KernelBlocks),
		Wraps:         atomic.LoadInt64(&bs.stats.Wraps),
	}
}

func (bs *blockSampler) allConsumed() bool {
	return bs.othersConsumed+bs.consCnt >= bs.globalBlocks
}

// skipVirtual consumes a stats-pruned block without reading it. Every
// quantity that feeds the statistics engine or a termination guard is
// charged exactly as a real read of a qualifying-row-free block would
// charge it — Drawn (stage-1 p-values consume it), the guard's row
// budget, the consumed set driving exactness inference — so the run's
// decisions, and therefore its results (including partials under
// cancellation), are byte-identical to a run with pruning disabled. The
// only deltas are the documented I/O counters, and BlockSpan is never
// called: a simulated-latency backend must not sleep for a block the
// scan proved it does not need.
func (bs *blockSampler) skipVirtual(b int, batch *core.Batch) {
	bs.chargeBlock(b, batch)
	atomic.AddInt64(&bs.stats.BlocksSkipped, 1)
	atomic.AddInt64(&bs.stats.BlocksPruned, 1)
}

// chargeBlock commits the decision to read block b: its rows are charged
// to the batch and the guard, and the block marked consumed, before any
// worker touches it. Planned work is never abandoned (a guard stop
// flushes the pending chunk), so eager charging keeps Drawn and budget
// accounting identical to a fully-serial read-then-charge loop.
func (bs *blockSampler) chargeBlock(b int, batch *core.Batch) {
	lo := b * bs.blockSize
	hi := lo + bs.blockSize
	if hi > bs.rows {
		hi = bs.rows
	}
	batch.Drawn += int64(hi - lo)
	bs.guard.addRows(int64(hi - lo))
	bs.consumed.Set(b)
	bs.consCnt++
}

// segment implements segmentRunner: one slice of a pass from the walk
// state in req, over this sampler's blocks from req.Cursor. The caller
// has validated req against the table.
func (bs *blockSampler) segment(req *ShardSegment) (*segmentOut, error) {
	bs.cursor = req.Cursor
	bs.visits = req.Visits
	bs.globalBlocks = req.GlobalBlocks
	bs.othersConsumed = req.OthersConsumed
	stage1Need := -1
	if req.Kind == SegStage1 {
		stage1Need = req.Stage1Need
	} else {
		bs.unmet = 0
		for i := range bs.deficit {
			bs.deficit[i] = 0
		}
		for id, d := range req.Deficits {
			if id < 0 || id >= len(bs.deficit) {
				return nil, fmt.Errorf("engine: segment deficit for unknown candidate %d", id)
			}
			if d > 0 {
				bs.deficit[id] = d
				bs.unmet++
			}
		}
		bs.refreshActive()
	}
	before := bs.Stats()
	out := &segmentOut{batch: newBatch(bs.cand.numCandidates())}
	out.visited, out.stop = bs.runRound(out.batch, stage1Need)
	out.io = ioDelta(bs.Stats(), before)
	out.cursor = bs.cursor
	out.consumed = bs.consCnt
	if req.Kind == SegRound {
		out.deficits = make(map[int]int64)
		for id, d := range bs.deficit {
			if d > 0 {
				out.deficits[id] = d
			}
		}
	}
	return out, nil
}

// refreshActive rebuilds the committed unmet candidate set.
func (bs *blockSampler) refreshActive() {
	bs.active = bs.active[:0]
	for id, d := range bs.deficit {
		if d > 0 {
			bs.active = append(bs.active, id)
		}
	}
}

// runRound is the unified planner/committer for one segment. stage1Need
// ≥ 0 selects stage-1 mode: sequential reads (no AnyActive) until Drawn
// reaches stage1Need. stage1Need < 0 selects deficit mode: the
// executor's block policy until every deficit is met (at chunk
// granularity). Either way the segment also ends when every block is
// consumed, the pass's visits run out, or the cursor reaches the end of
// the block space. Returns the number of cursor visits consumed and the
// guard's termination error (nil for a completed segment); on error the
// pending chunk has been flushed and the batch holds every committed
// sample.
func (bs *blockSampler) runRound(batch *core.Batch, stage1Need int) (int, error) {
	total := bs.src.NumBlocks()
	if total == 0 {
		return 0, nil
	}
	stage1 := stage1Need >= 0
	chunkCap := ChunkBlocks(bs.blockSize)
	workers := bs.workers
	if workers > chunkCap {
		workers = chunkCap
	}
	if workers < 1 {
		workers = 1
	}
	ws := bs.newWorkers(workers)

	// The per-round worker pool: spawned once per round (not per chunk),
	// joined on every return path so a canceled run never leaves readers
	// behind (the same discipline the old lookahead marker had).
	var tasks chan samplerTask
	var acks chan struct{}
	if workers > 1 {
		tasks = make(chan samplerTask)
		acks = make(chan struct{}, workers)
		var wg sync.WaitGroup
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for t := range tasks {
					t.w.process(t.blocks)
					acks <- struct{}{}
				}
			}()
		}
		defer func() { close(tasks); wg.Wait() }()
	}

	readBuf := make([]int, 0, chunkCap)
	flush := func() {
		n := len(readBuf)
		if n == 0 {
			return
		}
		if workers == 1 || n < 2 {
			ws[0].process(readBuf)
		} else {
			p := workers
			if p > n {
				p = n
			}
			for i := 0; i < p; i++ {
				tasks <- samplerTask{w: ws[i], blocks: readBuf[i*n/p : (i+1)*n/p]}
			}
			for i := 0; i < p; i++ {
				<-acks
			}
		}
		bs.commitChunk(ws)
		readBuf = readBuf[:0]
	}

	// FastMatch lookahead window state: marking decisions are computed
	// for lookahead-sized tiles at fixed block-index positions
	// [kL, (k+1)L) (Algorithm 3), each tile marked in one bulk AnyActive
	// pass from the active set committed when the planner first enters
	// it (a round starting mid-tile marks only the tile's remainder).
	// Marks within a tile are stale by up to the tile length — safe
	// because the deficit set only shrinks within a round, so a stale
	// mark is a superset of what fresher state would mark. Anchoring
	// tiles to block indices (not to the visit sequence) keeps the
	// marking schedule a pure function of the blocks walked, so shard
	// segments whose boundaries fall on tile boundaries mark exactly as
	// the single-node walk over the concatenated data would.
	var mark []bool
	winStart, winEnd := 0, 0 // current tile's block range; empty until first FastMatch visit

	visited := 0
	var stopErr error
	for ; visited < bs.visits; visited++ {
		if stage1 {
			if batch.Drawn >= int64(stage1Need) {
				break
			}
		} else if bs.unmet == 0 {
			break
		}
		if bs.allConsumed() {
			break
		}
		if bs.cursor >= total {
			break // segment end: the walk moves on to the next runner
		}
		if stopErr = bs.guard.Stop(); stopErr != nil {
			break
		}
		b := bs.cursor
		bs.cursor++
		read := false
		switch {
		case !stage1 && bs.mode == FastMatch:
			if b < winStart || b >= winEnd {
				n := bs.lookahead - b%bs.lookahead
				if n > total-b {
					n = total - b
				}
				if cap(mark) < n {
					mark = make([]bool, n)
				} else {
					mark = mark[:n]
					for i := range mark {
						mark[i] = false
					}
				}
				bs.cand.markAnyActive(bs.active, b, mark)
				winStart, winEnd = b, b+n
			}
			switch {
			case bs.consumed.Get(b):
			case !mark[b-winStart]:
				atomic.AddInt64(&bs.stats.BlocksSkipped, 1)
			case bs.skipGrp != nil && bs.skipGrp.Get(b):
				bs.skipVirtual(b, batch)
			default:
				read = true
			}
		case !stage1 && bs.mode == SyncMatch:
			switch {
			case bs.consumed.Get(b):
			// Algorithm 2: probe each active candidate's bitmap for this
			// single block — the cache-hostile pattern SyncMatch models —
			// with the last-committed active set.
			case !bs.cand.blockAnyActive(bs.active, b):
				atomic.AddInt64(&bs.stats.BlocksSkipped, 1)
			// Group-prunable blocks only: candidate-prunable ones were
			// already rejected (without sample accounting) by AnyActive.
			case bs.skipGrp != nil && bs.skipGrp.Get(b):
				bs.skipVirtual(b, batch)
			default:
				read = true
			}
		default: // stage 1, ScanMatch, Scan: read everything not pruned
			switch {
			case bs.consumed.Get(b):
			case bs.skipAll != nil && bs.skipAll.Get(b):
				bs.skipVirtual(b, batch)
			default:
				read = true
			}
		}
		if read {
			bs.chargeBlock(b, batch)
			readBuf = append(readBuf, b)
		}
		// Commit at fixed block-index boundaries (see the package
		// comment): after block b with (b+1) ≡ 0 mod chunkCap, and at
		// the end of the block space (the wrap point), so the commit
		// schedule never depends on how many blocks were skipped.
		if (b+1)%chunkCap == 0 || b+1 == total {
			flush()
		}
	}
	flush()
	bs.foldWorkers(batch, ws)
	return visited, stopErr
}

// commitChunk folds each worker's fresh per-chunk counts into the
// deficit bookkeeping, in worker order. Runs on the planner goroutine at
// a chunk barrier — no worker is in flight.
func (bs *blockSampler) commitChunk(ws []*samplerWorker) {
	changed := false
	for _, w := range ws {
		for _, id := range w.touched {
			c := w.cnt[id]
			w.counts[id] += c
			w.cnt[id] = 0
			if d := bs.deficit[id]; d > 0 {
				if c >= d {
					bs.deficit[id] = 0
					bs.unmet--
					changed = true
				} else {
					bs.deficit[id] = d - c
				}
			}
		}
		w.touched = w.touched[:0]
	}
	if changed {
		bs.refreshActive()
	}
	bs.chunks++
}

// foldWorkers merges the per-worker round partials into the round batch
// in worker order (core.Batch.Merge: exact integer sums, so the merged
// batch is byte-identical for any worker count) and accumulates the
// per-worker diagnostics.
func (bs *blockSampler) foldWorkers(batch *core.Batch, ws []*samplerWorker) {
	if bs.wBlocks == nil {
		bs.wBlocks = make([]int64, len(ws))
		bs.wTuples = make([]int64, len(ws))
	}
	for i, w := range ws {
		if err := batch.Merge(w.roundBatch()); err != nil {
			panic(err) // candidate domains match by construction
		}
		if i < len(bs.wBlocks) {
			bs.wBlocks[i] += w.blocks
			bs.wTuples[i] += w.tuples
		}
	}
}

// initFastPath captures direct code slices for the single-Z/single-X
// query shape so workers bypass per-row interface dispatch. The per-row
// accumulation sequence is value-identical to the generic path, so
// batches, deficits, and committed active sets are byte-identical.
func (bs *blockSampler) initFastPath() {
	if bs.filter != nil || bs.multi != nil {
		return
	}
	cc, ok := bs.cand.(*columnCandidates)
	if !ok {
		return
	}
	sg, ok := bs.grp.(singleGroups)
	if !ok {
		return
	}
	bs.fastOK = true
	bs.fastZ = cc.codes
	bs.fastX = sg.codes
	bs.fastRemap = cc.remap
}

// samplerTask is one worker's share of a chunk's read list.
type samplerTask struct {
	w      *samplerWorker
	blocks []int
}

// samplerWorker is one worker's private accumulation state for a round:
// a mergeable partial (counts + histograms, merged at round end) plus
// the per-chunk fresh counts the planner commits at each barrier.
// Workers share no mutable state — they read immutable plan data, write
// their own fields, and bump the sampler's atomic I/O counters.
type samplerWorker struct {
	bs     *blockSampler
	groups int
	// counts/hists are the round-cumulative mergeable partial.
	counts []int64
	hists  []*histogram.Histogram
	// acc is the flat scanKernel-style cell array [cand*groups+group],
	// non-nil only for the devirtualized single/single shape within the
	// kernel cell cap; folded exactly into hists at round end.
	acc []int64
	// cnt/touched are the per-chunk fresh counts, reset at each commit.
	cnt     []int64
	touched []int
	// blocks/tuples are per-worker diagnostics.
	blocks   int64
	tuples   int64
	multiBuf []int
}

// newWorkers allocates the round's worker states. The flat-cell kernel
// path needs fastOK (shape + kernels enabled) and a cell array within
// the scan kernels' cap.
func (bs *blockSampler) newWorkers(n int) []*samplerWorker {
	nc := bs.cand.numCandidates()
	groups := bs.grp.groups()
	kernel := bs.fastOK && nc > 0 && groups > 0 && nc*groups <= maxKernelCells
	ws := make([]*samplerWorker, n)
	for i := range ws {
		w := &samplerWorker{
			bs:     bs,
			groups: groups,
			counts: make([]int64, nc),
			hists:  make([]*histogram.Histogram, nc),
			cnt:    make([]int64, nc),
		}
		if kernel {
			w.acc = make([]int64, nc*groups)
		}
		ws[i] = w
	}
	return ws
}

// process reads the given blocks, accumulating into the worker's private
// state. Runs on a pool goroutine (or inline for workers=1); the only
// shared writes are the atomic I/O counters.
func (w *samplerWorker) process(blocks []int) {
	bs := w.bs
	groups := w.groups
	for _, b := range blocks {
		lo, hi := bs.src.BlockSpan(b)
		switch {
		case w.acc != nil:
			if bs.fastRemap == nil {
				for row := lo; row < hi; row++ {
					z := int(bs.fastZ[row])
					w.acc[z*groups+int(bs.fastX[row])]++
					if w.cnt[z] == 0 {
						w.touched = append(w.touched, z)
					}
					w.cnt[z]++
				}
			} else {
				for row := lo; row < hi; row++ {
					z := bs.fastRemap[bs.fastZ[row]]
					w.acc[z*groups+int(bs.fastX[row])]++
					if w.cnt[z] == 0 {
						w.touched = append(w.touched, z)
					}
					w.cnt[z]++
				}
			}
			atomic.AddInt64(&bs.stats.KernelBlocks, 1)
		case bs.fastOK:
			// Devirtualized but above the kernel cell cap: per-row
			// histogram accumulation on captured code slices.
			if bs.fastRemap == nil {
				for row := lo; row < hi; row++ {
					w.record(int(bs.fastZ[row]), int(bs.fastX[row]))
				}
			} else {
				for row := lo; row < hi; row++ {
					w.record(bs.fastRemap[bs.fastZ[row]], int(bs.fastX[row]))
				}
			}
			atomic.AddInt64(&bs.stats.KernelBlocks, 1)
		default:
			for row := lo; row < hi; row++ {
				if bs.filter != nil && !bs.filter(row) {
					continue
				}
				g := bs.grp.groupOf(row)
				if g < 0 {
					continue
				}
				if bs.multi != nil {
					// All-matches membership: a predicate candidate's
					// histogram includes every row satisfying it, even
					// rows an earlier overlapping predicate also matched.
					w.multiBuf = bs.multi.candidatesOf(row, w.multiBuf[:0])
					for _, id := range w.multiBuf {
						w.record(id, g)
					}
					continue
				}
				if id := bs.cand.candidateOf(row); id >= 0 {
					w.record(id, g)
				}
			}
		}
		n := int64(hi - lo)
		w.blocks++
		w.tuples += n
		atomic.AddInt64(&bs.stats.TuplesRead, n)
		atomic.AddInt64(&bs.stats.BlocksRead, 1)
	}
}

func (w *samplerWorker) record(id, g int) {
	if w.hists[id] == nil {
		w.hists[id] = histogram.New(w.groups)
	}
	w.hists[id].Add(g)
	if w.cnt[id] == 0 {
		w.touched = append(w.touched, id)
	}
	w.cnt[id]++
}

// roundBatch materializes the worker's mergeable partial. The flat cell
// array folds via AddN with integral counts — bit-identical to per-row
// Add accumulation.
func (w *samplerWorker) roundBatch() *core.Batch {
	if w.acc != nil {
		for id, c := range w.counts {
			if c == 0 {
				continue
			}
			h := histogram.New(w.groups)
			base := id * w.groups
			for g := 0; g < w.groups; g++ {
				if n := w.acc[base+g]; n != 0 {
					h.AddN(g, float64(n))
				}
			}
			w.hists[id] = h
		}
	}
	return &core.Batch{Counts: w.counts, Hists: w.hists}
}

// exhausted implements segmentRunner: it reports whether every block
// containing candidate i has been consumed.
func (bs *blockSampler) exhausted(i int) bool {
	cb := bs.cand.candidateBlocks(i)
	if cb == nil {
		return bs.allConsumed()
	}
	for w := 0; w < cb.NumWords(); w++ {
		if cb.Word(w)&^bs.consumed.Word(w) != 0 {
			return false
		}
	}
	return true
}
