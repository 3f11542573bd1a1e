package engine

import (
	"fmt"

	"fastmatch/internal/bitmap"
	"fastmatch/internal/colstore"
	"fastmatch/internal/histogram"
	"fastmatch/internal/obs/trace"
)

// Plan is a resolved query: the candidate and group mappers bound to the
// engine's table and indexes. Planning resolves columns, builds (or fetches
// cached) bitmap indexes, and compiles predicate matchers once; the
// resulting Plan is immutable and safe for concurrent use, so callers
// issuing the same query shape repeatedly — or from many goroutines —
// should Prepare once and reuse the Plan across runs.
type Plan struct {
	engine *Engine
	query  Query
	cand   candidateMapper
	multi  *predicateCandidates // non-nil iff candidates may overlap
	grp    groupMapper
	// skipAll / skipGrp mark blocks the storage backend's block statistics
	// prove free of qualifying rows; executors consume them virtually
	// (rows charged to guards and totals, nothing read) so results stay
	// byte-identical to a pruning-off run. skipGrp holds only the
	// group-side (measure-range) prunes; skipAll additionally folds in the
	// candidate-side prunes (complement of the predicate candidates' block
	// union), so skipGrp ⊆ skipAll. The split exists because SyncMatch and
	// FastMatch already skip non-candidate blocks via AnyActive without
	// charging samples — pruning those virtually would change Drawn and
	// break byte-identity — so they apply only skipGrp, after the
	// AnyActive check. Both are built once at Prepare from
	// option-independent inputs, keeping Plans cache- and
	// concurrency-safe; Options.DisableBlockSkip gates their use per run.
	skipAll *bitmap.Bitset
	skipGrp *bitmap.Bitset
}

// Prepare resolves a query into a reusable Plan. Run, RunWithTarget, and
// ResolveTarget are one-shot wrappers around Prepare; prepare explicitly to
// amortize planning across repeated runs.
func (e *Engine) Prepare(q Query) (*Plan, error) { return e.PrepareTraced(q, nil) }

// PrepareTraced is Prepare recording the planning phases — group and
// candidate resolution (including bitmap-index builds on cold columns)
// and skip-mask construction — as spans under a "plan" root in tr. A nil
// tr makes it identical to Prepare.
func (e *Engine) PrepareTraced(q Query, tr *trace.Trace) (*Plan, error) {
	if q.Measure != "" {
		return nil, fmt.Errorf("engine: SUM queries run over a MeasureBiasedView table; build one with MeasureBiasedView and query it with COUNT semantics")
	}
	psp := tr.Start("plan")
	defer psp.End()
	sp := psp.Child("groups")
	grp, err := e.planGroups(q)
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = psp.Child("candidates")
	cand, err := e.planCandidates(q)
	sp.End()
	if err != nil {
		return nil, err
	}
	p := &Plan{engine: e, query: q, cand: cand, grp: grp}
	if pc, ok := cand.(*predicateCandidates); ok {
		p.multi = pc
	}
	sp = psp.Child("skip_masks")
	p.buildSkipMasks()
	sp.End()
	return p, nil
}

// blockStatsOf surfaces a backend's block statistics, or nil when the
// backend (or, for a wrapper like ThrottledReader, its inner reader)
// carries none.
func blockStatsOf(src colstore.Reader) colstore.BlockStats {
	if br, ok := src.(colstore.BlockStatsReader); ok {
		return br.BlockStats()
	}
	return nil
}

// buildSkipMasks derives the plan's block-skip masks from the backend's
// block statistics and the plan shape. Group-side: a binned-measure query
// skips blocks whose measure range lies entirely outside the binner's
// edge span (Bin assigns no group to such values, so no row in the block
// can count). Candidate-side: a predicate-candidate query skips blocks
// outside the union of all candidates' possible blocks (no predicate can
// match there). Both prunes are sound by construction — a skipped block
// provably contributes to no histogram — which the equivalence suite
// verifies by re-reading pruned blocks.
func (p *Plan) buildSkipMasks() {
	nb := p.engine.src.NumBlocks()
	if nb == 0 {
		return
	}
	var grpMask *bitmap.Bitset
	if bg, ok := p.grp.(binnedGroups); ok {
		if stats := blockStatsOf(p.engine.src); stats != nil {
			edges := bg.binner.Edges()
			if len(edges) >= 2 {
				name := bg.m.MeasureName()
				for b := 0; b < nb; b++ {
					lo, hi, ok := stats.MeasureRange(name, b)
					if ok && (hi < edges[0] || lo > edges[len(edges)-1]) {
						if grpMask == nil {
							grpMask = bitmap.NewBitset(nb)
						}
						grpMask.Set(b)
					}
				}
			}
		}
	}
	var candMask *bitmap.Bitset
	if p.multi != nil {
		union := bitmap.NewBitset(nb)
		for _, bs := range p.multi.blocks {
			_ = union.Or(bs) // lengths match by construction
		}
		for b := 0; b < nb; b++ {
			if !union.Get(b) {
				if candMask == nil {
					candMask = bitmap.NewBitset(nb)
				}
				candMask.Set(b)
			}
		}
	}
	p.skipGrp = grpMask
	switch {
	case candMask == nil:
		p.skipAll = grpMask
	case grpMask == nil:
		p.skipAll = candMask
	default:
		all := bitmap.NewBitset(nb)
		_ = all.Or(grpMask)
		_ = all.Or(candMask)
		p.skipAll = all
	}
}

// plan is the internal form of Prepare, kept for call sites that want the
// raw mappers.
func (e *Engine) plan(q Query) (candidateMapper, groupMapper, error) {
	p, err := e.Prepare(q)
	if err != nil {
		return nil, nil, err
	}
	return p.cand, p.grp, nil
}

// planCandidates resolves the candidate mapper: predicate candidates when
// CandidatePreds is set, otherwise the distinct values of the Z column
// backed by its bitmap index.
func (e *Engine) planCandidates(q Query) (candidateMapper, error) {
	if len(q.CandidatePreds) > 0 {
		return newPredicateCandidates(e.src, q.CandidatePreds)
	}
	if q.Z == "" {
		return nil, fmt.Errorf("engine: query needs Z or CandidatePreds")
	}
	col, err := e.src.ColumnByName(q.Z)
	if err != nil {
		return nil, err
	}
	idx, err := e.Index(q.Z)
	if err != nil {
		return nil, err
	}
	return newColumnCandidates(col, e.src.NumRows(), idx, q.KnownCandidates)
}

// planGroups resolves the group mapper: binned measure groups, a single
// categorical column, or the cross product of several.
func (e *Engine) planGroups(q Query) (groupMapper, error) {
	if q.XMeasure != "" {
		if q.XBins == nil {
			return nil, fmt.Errorf("engine: XMeasure %q needs XBins", q.XMeasure)
		}
		m, err := e.src.MeasureByName(q.XMeasure)
		if err != nil {
			return nil, err
		}
		return newBinnedGroups(m, e.src.NumRows(), q.XBins), nil
	}
	if len(q.X) == 0 {
		return nil, fmt.Errorf("engine: query needs X or XMeasure")
	}
	if len(q.X) == 1 {
		col, err := e.src.ColumnByName(q.X[0])
		if err != nil {
			return nil, err
		}
		return newSingleGroups(col, e.src.NumRows()), nil
	}
	cols := make([]colstore.ColumnReader, len(q.X))
	for i, name := range q.X {
		col, err := e.src.ColumnByName(name)
		if err != nil {
			return nil, err
		}
		cols[i] = col
	}
	return newMultiGroups(cols, e.src.NumRows())
}

// Query returns the query this plan resolves.
func (p *Plan) Query() Query { return p.query }

// Groups returns the number of histogram groups the plan produces.
func (p *Plan) Groups() int { return p.grp.groups() }

// NumCandidates returns the number of candidates in the plan's domain.
func (p *Plan) NumCandidates() int { return p.cand.numCandidates() }

// GroupLabels names the histogram groups, aligned with Histogram indices.
func (p *Plan) GroupLabels() []string { return groupLabels(p.grp) }

// ResolveTarget materializes the target histogram under this plan.
// Candidate targets are resolved with an exact parallel scan restricted
// (via the bitmap index) to the blocks containing the candidate; workers
// ≤ 0 selects GOMAXPROCS.
func (p *Plan) ResolveTarget(t Target, workers int) (*histogram.Histogram, error) {
	return p.resolveTarget(t, workers, nil)
}

// resolveTarget is ResolveTarget under an optional run guard: a canceled
// context aborts the candidate-resolution scan with the typed
// termination error (a truncated target would be wrong, not partial).
func (p *Plan) resolveTarget(t Target, workers int, guard *Guard) (*histogram.Histogram, error) {
	return TargetHistogram(t, p.grp.groups(), p.cand.numCandidates(), p.cand.labelOf, func(id int) (*histogram.Histogram, error) {
		if p.query.Filter != nil {
			// A Filter closure written against the pre-planner API may be
			// stateful; only the explicit ParallelScan executor opts into
			// concurrent Filter calls, so resolve filtered targets
			// sequentially.
			workers = 1
		}
		ex := p.newScanExec(workers)
		ex.guard = guard
		return ex.candidateHistogram(id)
	})
}

// TargetHistogram materializes a target over a plan domain of groups
// groups and n candidates named by labelOf. Explicit and uniform targets
// need no data; a candidate target's exact histogram comes from exact.
// Plan.ResolveTarget and the cluster coordinator share it.
func TargetHistogram(t Target, groups, n int, labelOf func(int) string, exact func(id int) (*histogram.Histogram, error)) (*histogram.Histogram, error) {
	switch {
	case len(t.Counts) > 0:
		if len(t.Counts) != groups {
			return nil, fmt.Errorf("engine: target has %d groups, query produces %d", len(t.Counts), groups)
		}
		return histogram.FromCounts(t.Counts), nil
	case t.Uniform:
		counts := make([]float64, groups)
		for i := range counts {
			counts[i] = 1
		}
		return histogram.FromCounts(counts), nil
	case t.Candidate != "":
		for id := 0; id < n; id++ {
			if labelOf(id) == t.Candidate {
				return exact(id)
			}
		}
		return nil, fmt.Errorf("engine: target candidate %q not found", t.Candidate)
	default:
		return nil, fmt.Errorf("engine: empty target specification")
	}
}
