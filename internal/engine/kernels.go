package engine

import "fastmatch/internal/histogram"

// Vectorized grouped-count accumulation kernels for the exact-scan hot
// loop.
//
// The scalar scanChunk path pays, per row, two interface dispatches
// (groupOf, candidateOf), a lazy-histogram nil check, and a float64
// histogram update. A kernel instead processes one block's aliased code
// slices in a batch against a flat per-worker int64 accumulator of
// candidates × groups cells, then folds the accumulator into the
// histograms once per worker (histogram.AddN). Counts are non-negative
// integers well below 2^53, so n folded at once equals n scalar Adds
// bit-for-bit: results are byte-identical to the scalar path, and
// IOStats.KernelBlocks is the only observable difference.
//
// Kernel shapes mirror the planner's mapper shapes:
//
//   - fused single/single: candidate = Z code, group = X code — one
//     branch-free multiply-add per row (plus the known-candidate remap
//     variant, whose table is total by construction).
//   - multi-column groups: the composite group code is built per block
//     with one strided pass per column into a scratch buffer.
//   - binned measure groups: bins resolved per block into the scratch
//     buffer (-1 = out of range, dropped at accumulation).
//   - predicate candidates: per candidate, the compiled matcher sweeps
//     the block against the precomputed group buffer.
//
// Rows with Filter set take the scalar path, which calls Filter once per
// row of every block read.

// maxKernelCells caps the flat accumulator (candidates × groups) at 32
// MiB of int64 cells; larger shapes fall back to the scalar path, whose
// lazily-allocated histograms handle sparse giants better anyway.
const maxKernelCells = 1 << 22

// scanKernel is one worker's accumulation state. Instances are
// per-worker (never shared): the accumulator is written without
// synchronization.
type scanKernel struct {
	groups int
	nCand  int
	acc    []int64 // [candidate*groups + group]

	// Candidate side: exactly one of (zc) / (matchers) is set.
	zc       []uint32             // columnCandidates: Z codes, full column
	remap    []int                // nil = identity; else total, values ≥ 0
	matchers []func(row int) bool // predicateCandidates: compiled matchers

	// Group side: exactly one of (xc) / (multi) / (binned) is set.
	xc     []uint32 // singleGroups: X codes, full column
	multi  *multiGroups
	binned binnedGroups
	hasBin bool

	gbuf []int32 // per-block group scratch; nil on the fused path
}

// newKernel builds a kernel matching the executor's plan shape, or nil
// when no kernel covers it (Filter present, unknown mapper, accumulator
// too large) — the caller then runs the scalar loop. Without alloc the
// kernel gets no accumulator or scratch: Plan.Explain only asks whether
// one would be built.
func (s *scanExec) newKernel(alloc bool) *scanKernel {
	if s.filter != nil {
		return nil
	}
	groups := s.grp.groups()
	nCand := s.cand.numCandidates()
	if groups <= 0 || nCand <= 0 || int64(groups)*int64(nCand) > maxKernelCells {
		return nil
	}
	k := &scanKernel{groups: groups, nCand: nCand}
	switch g := s.grp.(type) {
	case singleGroups:
		k.xc = g.codes
	case *multiGroups:
		k.multi = g
	case binnedGroups:
		k.binned = g
		k.hasBin = true
	default:
		return nil
	}
	if s.multi != nil {
		k.matchers = s.multi.matchers
	} else if cc, ok := s.cand.(*columnCandidates); ok {
		k.zc = cc.codes
		k.remap = cc.remap
	} else {
		return nil
	}
	if alloc {
		k.acc = make([]int64, groups*nCand)
		if k.xc == nil || k.matchers != nil {
			k.gbuf = make([]int32, s.blockSize)
		}
	}
	return k
}

// block accumulates rows [lo, hi) — one storage block.
func (k *scanKernel) block(lo, hi int) {
	if k.gbuf == nil {
		// Fused single/single: group and candidate are direct code
		// lookups; no scratch, no branches beyond the remap variant.
		g := k.groups
		if k.remap == nil {
			for row := lo; row < hi; row++ {
				k.acc[int(k.zc[row])*g+int(k.xc[row])]++
			}
		} else {
			for row := lo; row < hi; row++ {
				k.acc[k.remap[k.zc[row]]*g+int(k.xc[row])]++
			}
		}
		return
	}
	gb := k.gbuf[:hi-lo]
	switch {
	case k.xc != nil:
		for i := range gb {
			gb[i] = int32(k.xc[lo+i])
		}
	case k.multi != nil:
		for i := range gb {
			gb[i] = 0
		}
		for ci, codes := range k.multi.codes {
			stride := int32(k.multi.strides[ci])
			for i := range gb {
				gb[i] += int32(codes[lo+i]) * stride
			}
		}
	default:
		for i := range gb {
			if bin, ok := k.binned.binner.Bin(k.binned.values[lo+i]); ok {
				gb[i] = int32(bin)
			} else {
				gb[i] = -1
			}
		}
	}
	g := k.groups
	switch {
	case k.matchers != nil:
		for c, m := range k.matchers {
			base := c * g
			for i, gg := range gb {
				if gg >= 0 && m(lo+i) {
					k.acc[base+int(gg)]++
				}
			}
		}
	case k.remap == nil:
		for i, gg := range gb {
			if gg >= 0 {
				k.acc[int(k.zc[lo+i])*g+int(gg)]++
			}
		}
	default:
		for i, gg := range gb {
			if gg >= 0 {
				k.acc[k.remap[k.zc[lo+i]]*g+int(gg)]++
			}
		}
	}
}

// fold drains the accumulator into the partial's histograms. Histograms
// stay lazily allocated — a candidate with no counted row keeps a nil
// histogram, exactly like the scalar path — and the accumulator is
// zeroed so a second fold is a no-op.
func (k *scanKernel) fold(part *scanPartial, groups int) {
	for id := 0; id < k.nCand; id++ {
		row := k.acc[id*k.groups : (id+1)*k.groups]
		for gg, n := range row {
			if n == 0 {
				continue
			}
			if part.hists[id] == nil {
				part.hists[id] = histogram.New(groups)
			}
			part.hists[id].AddN(gg, float64(n))
			row[gg] = 0
		}
	}
}
