package engine

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fastmatch/internal/bitmap"
	"fastmatch/internal/colstore"
	"fastmatch/internal/core"
	"fastmatch/internal/histogram"
	"fastmatch/internal/obs/trace"
)

// scanExec is the exact-pass executor: the full-data baseline the paper
// compares against (§5.2), run by the Scan executor, the crossover,
// candidate-target resolution and shard scan segments alike. Its workers
// claim contiguous chunks of scanChunkBlocks blocks in storage order from
// a shared cursor and count into private accumulators merged at a
// barrier. Counts are integers, so the merged histograms — and therefore
// distances, pruning decisions, and the top-k — do not depend on the
// worker count or on which worker read which chunk. What a one-worker
// pass defines by its order holds at every worker count too:
//
//   - Progress: a frame goes out each time the completed storage-order
//     prefix of chunks reaches a multiple of scanProgressInterval blocks,
//     carrying that prefix's IOStats, as a one-worker pass's would.
//   - Row budget: every block, read or pruned, is charged, so the block a
//     one-worker pass stops at follows from the budget and the block
//     boundaries alone (budgetEnd); the workers scan only blocks before it.
//   - Cancellation and deadlines stop each worker at its next block
//     boundary: the result holds the blocks read before the stop, and its
//     histograms hold exactly the rows IO counts.
type scanExec struct {
	src     colstore.Reader
	cand    candidateMapper
	multi   *predicateCandidates // non-nil iff candidates may overlap
	grp     groupMapper
	filter  func(row int) bool
	workers int
	// guard, when non-nil, is consulted once per block for cancellation
	// and deadlines; its row budget fixes the pass's end (budgetEnd).
	guard *Guard
	emit  func(io IOStats) // progress: the completed prefix's I/O, full passes only
	// skip, when non-nil, marks blocks whose statistics prove no
	// qualifying row; scanChunk consumes them virtually (rows charged to
	// guards and totals, nothing read). blockSize/rows are cached so the
	// virtual path never calls BlockSpan — a simulated-latency backend
	// must not sleep for a block the scan skips.
	skip      *bitmap.Bitset
	blockSize int
	rows      int
	kernels   bool // vectorized accumulation where a kernel covers the shape
	// span, when non-nil, is the traced run's parent span: the merge
	// barrier records one child span per worker (its block count, wall
	// time, and IOStats).
	span *trace.Span
}

const (
	// scanProgressInterval is how many blocks of the pass lie between
	// progress frames.
	scanProgressInterval = 256
	// scanChunkBlocks is the unit a scan worker claims. It divides
	// scanProgressInterval, so every frame position is a chunk boundary.
	// Measured on a 2-vCPU box over a 4M-row flights table in 32-row
	// blocks, two workers took a median 8.0 ms with 256-block chunks,
	// 8.9 ms with 128 and 9.0 ms with 32; one worker took 15 ms.
	scanChunkBlocks = 256
)

// newScanExec binds a scan executor to a plan with a segment's run knobs
// (Workers ≤ 0 selects GOMAXPROCS; run caps it at the pass's chunk
// count) under an optional run guard.
func (p *Plan) newScanExec(knobs ShardSegment, guard *Guard) *scanExec {
	ex := &scanExec{
		src:       p.engine.src,
		cand:      p.cand,
		multi:     p.multi,
		grp:       p.grp,
		filter:    p.query.Filter,
		workers:   knobs.Workers,
		guard:     guard,
		blockSize: p.engine.src.BlockSize(),
		rows:      p.engine.src.NumRows(),
		kernels:   !knobs.DisableScanKernels,
	}
	if ex.workers <= 0 {
		ex.workers = runtime.GOMAXPROCS(0)
	}
	if !knobs.DisableBlockSkip {
		ex.skip = p.skipAll
	}
	return ex
}

// scanPass is one run's state shared by its workers: the chunk cursor
// and, when progress is wanted, the completed chunks' IOStats.
type scanPass struct {
	only   *bitmap.Bitset
	keep   int
	end    int          // the pass covers blocks [0, end)
	cursor atomic.Int64 // next chunk to claim
	mu     sync.Mutex
	chunks []IOStats // completed chunks' IOStats, zero until complete
	next   int       // first chunk outside the completed prefix
	io     IOStats   // the completed prefix's IOStats
}

// scanPartial is one worker's private accumulators and scratch.
type scanPartial struct {
	hists        []*histogram.Histogram // lazily allocated per candidate
	kern         *scanKernel            // nil: the scalar row loop
	multi        []int                  // candidatesOf scratch
	io           IOStats
	rows         int64
	err          error     // guard termination, if the worker was interrupted
	began, ended time.Time // the worker's wall time, for its trace span
}

// blockRows is block b's row count, computed without BlockSpan.
func (s *scanExec) blockRows(b int) int64 {
	lo := b * s.blockSize
	return int64(min(lo+s.blockSize, s.rows) - lo)
}

// budgetEnd returns the block a one-worker pass would stop at for the
// row budget: the first block reached with the budget spent, or nb.
// Blocks outside only are passed uncharged, as the pass passes them.
func (s *scanExec) budgetEnd(nb int, only *bitmap.Bitset) int {
	if s.guard == nil || s.guard.budget <= 0 {
		return nb
	}
	left := s.guard.budget - s.guard.rows.Load()
	for b := 0; b < nb; b++ {
		if left <= 0 {
			return b
		}
		if only == nil || only.Get(b) {
			left -= s.blockRows(b)
		}
	}
	return nb
}

// worker claims chunks until none are left or the guard interrupts the
// run, then folds its kernel accumulator.
func (s *scanExec) worker(ps *scanPass) *scanPartial {
	part := &scanPartial{hists: make([]*histogram.Histogram, s.cand.numCandidates()), began: time.Now()}
	if s.kernels && ps.only == nil && ps.keep < 0 {
		part.kern = s.newKernel(true)
	}
	for {
		c := int(ps.cursor.Add(1) - 1)
		lo := c * scanChunkBlocks
		if lo >= ps.end {
			break
		}
		io := s.scanChunk(part, lo, min(lo+scanChunkBlocks, ps.end), ps.only, ps.keep)
		part.io.Add(io)
		if part.err != nil {
			break
		}
		if ps.chunks != nil {
			s.complete(ps, c, io)
		}
	}
	if part.kern != nil {
		part.kern.fold(part, s.grp.groups())
	}
	part.ended = time.Now()
	return part
}

// complete records chunk c's IOStats and, in storage order, emits every
// frame the grown prefix of completed chunks reaches. A completed chunk
// of a full pass read or pruned at least one block, so its IOStats are
// nonzero. The mutex orders the frames; emit runs under it.
func (s *scanExec) complete(ps *scanPass, c int, io IOStats) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	ps.chunks[c] = io
	for ; ps.next < len(ps.chunks) && ps.chunks[ps.next] != (IOStats{}); ps.next++ {
		ps.io.Add(ps.chunks[ps.next])
		if min((ps.next+1)*scanChunkBlocks, ps.end)%scanProgressInterval == 0 {
			s.emit(ps.io)
		}
	}
}

// scanChunk sweeps blocks [lo, hi), restricted to `only` when non-nil,
// recording every row whose candidate passes keep (keep < 0 keeps all
// candidates), and returns the chunk's IOStats. A guard stop sets
// part.err and ends the chunk at the block boundary.
//
// Stats-pruned blocks (s.skip) are consumed virtually: their rows are
// charged to the guard and to part.rows — so budget decisions, σ
// selectivities, and partial results are byte-identical to a pruning-off
// sweep — but the block is never read and TuplesRead stays untouched.
func (s *scanExec) scanChunk(part *scanPartial, lo, hi int, only *bitmap.Bitset, keep int) IOStats {
	var io IOStats
	groups := s.grp.groups() // hoisted out of the per-row loop
	for b := lo; b < hi; b++ {
		if err := s.guard.stop(false); err != nil {
			part.err = err
			return io
		}
		if only != nil && !only.Get(b) {
			continue
		}
		if s.skip != nil && s.skip.Get(b) {
			n := s.blockRows(b)
			io.BlocksSkipped++
			io.BlocksPruned++
			part.rows += n
			s.guard.addRows(n)
			continue
		}
		rlo, rhi := s.src.BlockSpan(b)
		n := int64(rhi - rlo)
		io.BlocksRead++
		io.TuplesRead += n
		part.rows += n
		s.guard.addRows(n)
		if part.kern != nil {
			part.kern.block(rlo, rhi)
			io.KernelBlocks++
			continue
		}
		for row := rlo; row < rhi; row++ {
			if s.filter != nil && !s.filter(row) {
				continue
			}
			g := s.grp.groupOf(row)
			if g < 0 {
				continue
			}
			if s.multi != nil {
				// All-matches membership, for the full scan and for the
				// keep-one target path alike: a predicate candidate's true
				// histogram includes every row satisfying it, even rows an
				// earlier overlapping predicate also matches.
				part.multi = s.multi.candidatesOf(row, part.multi[:0])
				for _, id := range part.multi {
					if keep >= 0 && id != keep {
						continue
					}
					part.add(id, g, groups)
				}
				continue
			}
			id := s.cand.candidateOf(row)
			if id < 0 || (keep >= 0 && id != keep) {
				continue
			}
			part.add(id, g, groups)
		}
	}
	return io
}

func (p *scanPartial) add(id, g, groups int) {
	if p.hists[id] == nil {
		p.hists[id] = histogram.New(groups)
	}
	p.hists[id].Add(g)
}

// run fans the scan out over the pass's chunks and merges the per-worker
// accumulators at the barrier into a complete histogram set. When the
// guard fires, every worker unwinds at its next block boundary and run
// returns the merged partial accumulators with the termination error; a
// budget stop follows the last block before budgetEnd's, as in a
// one-worker pass. All goroutines are joined before run returns.
func (s *scanExec) run(only *bitmap.Bitset, keep int) ([]*histogram.Histogram, IOStats, int64, error) {
	nb := s.src.NumBlocks()
	ps := &scanPass{only: only, keep: keep, end: s.budgetEnd(nb, only)}
	nChunks := (ps.end + scanChunkBlocks - 1) / scanChunkBlocks
	if s.emit != nil && only == nil {
		ps.chunks = make([]IOStats, nChunks)
	}
	parts := make([]*scanPartial, max(min(s.workers, nChunks), 1))
	var wg sync.WaitGroup
	for w := 1; w < len(parts); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[w] = s.worker(ps)
		}()
	}
	parts[0] = s.worker(ps)
	wg.Wait()

	hists := make([]*histogram.Histogram, s.cand.numCandidates())
	for i := range hists {
		hists[i] = histogram.New(s.grp.groups())
	}
	var io IOStats
	var rows int64
	var stopErr error
	for w, part := range parts {
		io.Add(part.io)
		rows += part.rows
		if part.err != nil && stopErr == nil {
			stopErr = part.err
		}
		if s.span != nil {
			sp := s.span.ChildAt(fmt.Sprintf("worker%d", w), part.began)
			sp.SetAttr("blocks", part.io.BlocksRead+part.io.BlocksSkipped)
			sp.SetIO(TraceIO(part.io))
			sp.EndAt(part.ended)
		}
		for i, h := range part.hists {
			if h == nil {
				continue
			}
			if err := hists[i].AddHistogram(h); err != nil {
				panic(err) // group counts match by construction
			}
		}
	}
	if stopErr == nil && ps.end < nb {
		stopErr = s.guard.Stop()
	}
	return hists, io, rows, stopErr
}

// runScan answers the plan exactly: one full pass computing every
// candidate histogram, exact σ pruning, exact top-k, with a "scan"
// progress frame every scanProgressInterval blocks. An interrupted pass
// (guard fired) instead returns a best-effort Result — Partial set, no σ
// pruning (selectivities from a truncated pass are biased), candidates
// ranked by their partial histograms — alongside the termination error.
func (p *Plan) runScan(target *histogram.Histogram, opts Options, guard *Guard, began time.Time, span *trace.Span) (*Result, error) {
	if err := opts.Params.Validate(); err != nil {
		return nil, err
	}
	ex := p.newScanExec(SegmentKnobs(opts), guard)
	ex.span = span
	if opts.OnProgress != nil {
		ex.emit = func(io IOStats) {
			opts.OnProgress(Progress{Phase: "scan", IO: io, Elapsed: time.Since(began)})
		}
	}
	hists, io, totalRows, stopErr := ex.run(nil, -1)
	res := ExactResult(target, opts.Params, hists, totalRows, stopErr == nil, p.cand.labelOf)
	res.IO, res.GroupLabels = io, groupLabels(p.grp)
	res.Duration = time.Since(began)
	return res, stopErr
}

// ExactResult ranks fully-accumulated per-candidate histograms the way
// the exact pass does: σ pruning only on a complete pass (selectivities
// from a truncated pass are biased), never-reached candidates dropped
// from a partial ranking, k from Params.K or the KRange rule. Sharing it
// with the cluster coordinator's scatter-gather Scan is what makes the
// coordinated top-k byte-identical to the single-node one.
func ExactResult(target *histogram.Histogram, params core.Params, hists []*histogram.Histogram,
	totalRows int64, complete bool, labelOf func(int) string) *Result {
	res := &Result{Exact: complete, Partial: !complete}
	dist := make([]float64, len(hists))
	var keep []int
	for i := range hists {
		if complete && params.Sigma > 0 {
			if sel := hists[i].Total() / float64(totalRows); sel < params.Sigma {
				res.Pruned = append(res.Pruned, labelOf(i))
				continue
			}
		}
		if !complete && hists[i].Total() == 0 {
			// Never-reached candidate: its empty histogram normalizes
			// to uniform, which would rank it as a perfect match for
			// uniform-like targets. A truncated pass ranks only what it
			// saw.
			continue
		}
		dist[i] = params.Metric.Distance(hists[i], target)
		keep = append(keep, i)
	}
	k := params.K
	if params.KRange.KMax > 0 {
		k = params.KRange.KMax
		if k > len(keep) && params.KRange.KMin <= len(keep) {
			k = len(keep)
		}
	}
	for _, rk := range histogram.TopK(dist, keep, k) {
		res.TopK = append(res.TopK, Match{
			ID:        rk.ID,
			Label:     labelOf(rk.ID),
			Distance:  rk.Distance,
			Histogram: hists[rk.ID].Clone(),
		})
	}
	res.Stats.ChosenK = len(res.TopK)
	res.Stats.PrunedCandidates = len(res.Pruned)
	return res
}
