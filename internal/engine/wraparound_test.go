package engine

import (
	"testing"

	"fastmatch/internal/bitmap"
)

func TestCursorContinuesAcrossStages(t *testing.T) {
	// Stage 1 then stage-2-style sampling must consume disjoint blocks:
	// total drawn never exceeds the table, and the consumed set grows
	// monotonically.
	w, _ := newTestSampler(t, FastMatch, 20_000, 50)
	b1, err := w.Stage1(2000)
	if err != nil {
		t.Fatal(err)
	}
	read1 := w.Stats().BlocksRead
	b2, err := w.SampleUntil(map[int]int{0: 200, 3: 100})
	if err != nil {
		t.Fatal(err)
	}
	if w.Stats().BlocksRead <= read1 && b2.Drawn > 0 {
		t.Fatal("second phase drew tuples without reading blocks")
	}
	if b1.Drawn+b2.Drawn > 20_000 {
		t.Fatalf("phases overlap: %d + %d tuples", b1.Drawn, b2.Drawn)
	}
}

func TestWrapAroundFromLateStart(t *testing.T) {
	// Starting near the end of the block space must wrap and still meet
	// needs, for every executor.
	for _, exec := range []Executor{ScanMatch, SyncMatch, FastMatch} {
		t.Run(exec.String(), func(t *testing.T) {
			tbl := testDataset(t, 20_000, 10, 6, 51)
			e := New(tbl)
			cand, grp, err := e.plan(baseQuery())
			if err != nil {
				t.Fatal(err)
			}
			start := tbl.NumBlocks() - 3
			w := localWalk(tbl, cand, grp, exec, 16, start)
			batch, err := w.SampleUntil(map[int]int{0: 500})
			if err != nil {
				t.Fatal(err)
			}
			if batch.Counts[0] < 500 && !batch.IsExact(0) {
				t.Fatalf("wrap-around failed to meet need: %d", batch.Counts[0])
			}
			if w.Stats().Wraps == 0 && exec != FastMatch {
				t.Fatal("no wrap recorded despite late start")
			}
		})
	}
}

func TestLookaheadWindowCrossesWrap(t *testing.T) {
	// A lookahead window larger than the remaining tail must mark both
	// segments (the wrap-split path in runLookahead).
	tbl := testDataset(t, 5_000, 8, 6, 52)
	e := New(tbl)
	cand, grp, err := e.plan(baseQuery())
	if err != nil {
		t.Fatal(err)
	}
	nb := tbl.NumBlocks()
	w := localWalk(tbl, cand, grp, FastMatch, nb, nb-2) // window spans the wrap
	batch, err := w.SampleUntil(map[int]int{1: 100})
	if err != nil {
		t.Fatal(err)
	}
	if batch.Counts[1] < 100 && !batch.IsExact(1) {
		t.Fatalf("wrap-spanning window failed: %d", batch.Counts[1])
	}
}

func TestIndexCompressionStats(t *testing.T) {
	// The TAXI-like Location index must compress well: most values touch
	// few blocks, so zero runs dominate.
	tbl := testDataset(t, 50_000, 200, 6, 53)
	idx, err := bitmap.Build(tbl, "Z")
	if err != nil {
		t.Fatal(err)
	}
	cs := idx.CompressionStats()
	if cs.DenseBytes == 0 || cs.CompressedBytes == 0 {
		t.Fatal("empty compression stats")
	}
	if cs.Ratio() <= 0 {
		t.Fatalf("invalid ratio %g", cs.Ratio())
	}
	// With 200 moderately skewed candidates over ~400 blocks of 128, rare
	// values have sparse bitsets; expect at least some compression.
	t.Logf("dense=%dB compressed=%dB ratio=%.2f maxRuns=%d",
		cs.DenseBytes, cs.CompressedBytes, cs.Ratio(), cs.MaxRuns)
}

func TestEngineSequentialQueryReuse(t *testing.T) {
	// One engine must serve several different queries back to back with
	// cached indexes and no cross-talk.
	tbl := testDataset(t, 30_000, 12, 6, 54)
	e := New(tbl)
	q1 := Query{Z: "Z", X: []string{"X"}}
	q2 := Query{Z: "W", X: []string{"X"}}
	params := testParams()
	r1, err := e.Run(q1, Target{Uniform: true}, Options{Params: params, Executor: FastMatch, DisableCrossover: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.Run(q2, Target{Uniform: true}, Options{Params: params, Executor: FastMatch, DisableCrossover: true, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	r1again, err := e.Run(q1, Target{Uniform: true}, Options{Params: params, Executor: Scan})
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.TopK) == 0 || len(r2.TopK) == 0 || len(r1again.TopK) == 0 {
		t.Fatal("empty results on reuse")
	}
	// The W query's candidates come from W's domain (4 values).
	for _, m := range r2.TopK {
		if m.Label[:2] != "W_" {
			t.Fatalf("cross-talk: %q in W query results", m.Label)
		}
	}
}

func TestScanIgnoresStartBlock(t *testing.T) {
	tbl := testDataset(t, 10_000, 8, 6, 55)
	e := New(tbl)
	params := testParams()
	a, err := e.Run(baseQuery(), Target{Uniform: true}, Options{Params: params, Executor: Scan, StartBlock: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Run(baseQuery(), Target{Uniform: true}, Options{Params: params, Executor: Scan, StartBlock: 99})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.TopK {
		if a.TopK[i].Label != b.TopK[i].Label {
			t.Fatal("Scan results depend on start block")
		}
	}
}
