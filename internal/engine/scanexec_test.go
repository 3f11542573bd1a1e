package engine

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"fastmatch/internal/bitmap"
	"fastmatch/internal/colstore"
)

// requireIdenticalResults asserts two exact results agree bit-for-bit:
// same top-k order, same distances, same histogram counts, same pruning.
func requireIdenticalResults(t *testing.T, want, got *Result) {
	t.Helper()
	if !got.Exact {
		t.Fatal("parallel result not exact")
	}
	if len(got.TopK) != len(want.TopK) {
		t.Fatalf("topk size %d, want %d", len(got.TopK), len(want.TopK))
	}
	for i := range want.TopK {
		w, g := want.TopK[i], got.TopK[i]
		if g.ID != w.ID || g.Label != w.Label {
			t.Fatalf("topk[%d] = %d %q, want %d %q", i, g.ID, g.Label, w.ID, w.Label)
		}
		if g.Distance != w.Distance {
			t.Fatalf("topk[%d] distance %v != %v", i, g.Distance, w.Distance)
		}
		wc, gc := w.Histogram.Counts(), g.Histogram.Counts()
		for j := range wc {
			if wc[j] != gc[j] {
				t.Fatalf("topk[%d] hist[%d] = %v, want %v", i, j, gc[j], wc[j])
			}
		}
	}
	if len(got.Pruned) != len(want.Pruned) {
		t.Fatalf("pruned %d, want %d", len(got.Pruned), len(want.Pruned))
	}
	for i := range want.Pruned {
		if got.Pruned[i] != want.Pruned[i] {
			t.Fatalf("pruned[%d] = %q, want %q", i, got.Pruned[i], want.Pruned[i])
		}
	}
	if got.IO.BlocksRead != want.IO.BlocksRead || got.IO.TuplesRead != want.IO.TuplesRead {
		t.Fatalf("io %+v, want %+v", got.IO, want.IO)
	}
}

// TestScanAtAnyWorkerCount pins the exact Scan's worker-count contract:
// on the heap, mmap and throttled backends, for every query shape and
// row budget, a run at Workers 2, 3, 8 or the default (GOMAXPROCS)
// returns the Result JSON, the error and the progress-frame sequence
// (Elapsed zeroed) of the one-worker run. The budgets stop the pass inside a chunk, on a chunk
// boundary, past the first progress frame, and not at all.
func TestScanAtAnyWorkerCount(t *testing.T) {
	tbl := testDataset(t, 40_000, 12, 6, 21)
	backends := []struct {
		name string
		src  colstore.Reader
	}{
		{"heap", tbl},
		{"mmap", mmapTwin(t, tbl)},
		{"throttled", colstore.NewThrottledReader(tbl, time.Microsecond)},
	}
	w, _ := tbl.Column("W")
	z, _ := tbl.Column("Z")
	filtered := baseQuery()
	filtered.Filter = func(row int) bool { return w.Code(row) != 3 }
	filtered.KnownCandidates = []string{z.Dict.Value(0), z.Dict.Value(1), z.Dict.Value(4)}

	bs := int64(tbl.BlockSize())
	budgets := []struct {
		name   string
		budget int64
		stop   int // the block the pass stops at, for the plain query
	}{
		{"unbudgeted", 0, tbl.NumBlocks()},
		{"mid-chunk", 20*bs + 10, 21},
		{"chunk-boundary", 2 * scanChunkBlocks * bs, 2 * scanChunkBlocks},
		{"past-a-frame", 300*bs + 1, 301},
		{"past-the-end", int64(tbl.NumRows()) + 1, tbl.NumBlocks()},
	}
	for _, b := range backends {
		e := New(b.src)
		dmZ, err := e.Density("Z")
		if err != nil {
			t.Fatal(err)
		}
		dmW, err := e.Density("W")
		if err != nil {
			t.Fatal(err)
		}
		preds := Query{X: []string{"X"}, CandidatePreds: []bitmap.Predicate{
			&bitmap.ValuePred{Column: "Z", Code: 1, DM: dmZ},
			&bitmap.OrPred{Children: []bitmap.Predicate{
				&bitmap.ValuePred{Column: "Z", Code: 1, DM: dmZ},
				&bitmap.ValuePred{Column: "W", Code: 0, DM: dmW},
			}},
		}}
		queries := []struct {
			name   string
			q      Query
			target Target
		}{
			{"uniform", baseQuery(), Target{Uniform: true}},
			{"candidate-target", baseQuery(), Target{Candidate: z.Dict.Value(2)}},
			{"filter-known", filtered, Target{Uniform: true}},
			{"pred-cands", preds, Target{Uniform: true}},
		}
		for _, qc := range queries {
			t.Run(b.name+"/"+qc.name, func(t *testing.T) {
				for _, bc := range budgets {
					run := func(workers int) (string, string) {
						opts := Options{Params: testParams(), Executor: Scan, Workers: workers, RowBudget: bc.budget}
						opts.Params.Sigma = 0
						var frames []Progress
						opts.OnProgress = func(p Progress) {
							p.Elapsed = 0
							frames = append(frames, p)
						}
						res, err := e.Run(qc.q, qc.target, opts)
						if qc.name == "uniform" {
							// The plain query pins where the pass stops,
							// independently of the one-worker run.
							if cut := bc.stop < tbl.NumBlocks(); errors.Is(err, ErrBudgetExhausted) != cut || (!cut && err != nil) {
								t.Fatalf("%s at %d workers: error %v", bc.name, workers, err)
							}
							if got := res.IO.BlocksRead + res.IO.BlocksSkipped; got != int64(bc.stop) {
								t.Fatalf("%s at %d workers: stopped at block %d, want %d", bc.name, workers, got, bc.stop)
							}
							if want := bc.stop / scanProgressInterval; len(frames) != want {
								t.Fatalf("%s at %d workers: %d progress frames, want %d", bc.name, workers, len(frames), want)
							}
						}
						out := fmt.Sprintf("err=%v frames=%+v", err, frames)
						if res == nil {
							return "", out
						}
						return canonicalResult(t, res), out
					}
					wantRes, wantRun := run(1)
					for _, workers := range []int{0, 2, 3, 8} {
						gotRes, gotRun := run(workers)
						if gotRes != wantRes {
							t.Fatalf("%s: result at %d workers diverges:\n%s\nvs one worker\n%s", bc.name, workers, gotRes, wantRes)
						}
						if gotRun != wantRun {
							t.Fatalf("%s: error or frames at %d workers diverge:\n%s\nvs one worker\n%s", bc.name, workers, gotRun, wantRun)
						}
					}
				}
			})
		}
	}
}

// TestOverlappingPredicateTargetResolution asserts that resolving a
// predicate candidate as the target counts every row satisfying the
// predicate, including rows an earlier overlapping predicate also
// matches (the target must match its own scan histogram).
func TestOverlappingPredicateTargetResolution(t *testing.T) {
	tbl := testDataset(t, 20_000, 8, 6, 26)
	e := New(tbl)
	dmZ, err := e.Density("Z")
	if err != nil {
		t.Fatal(err)
	}
	q := Query{X: []string{"X"}}
	// pred 1 overlaps pred 0 on Z=0 rows.
	q.CandidatePreds = append(q.CandidatePreds,
		&bitmap.ValuePred{Column: "Z", Code: 0, DM: dmZ},
		&bitmap.OrPred{Children: []bitmap.Predicate{
			&bitmap.ValuePred{Column: "Z", Code: 0, DM: dmZ},
			&bitmap.ValuePred{Column: "Z", Code: 1, DM: dmZ},
		}},
	)
	p, err := e.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	h, err := p.ResolveTarget(Target{Candidate: q.CandidatePreds[1].String()}, 1)
	if err != nil {
		t.Fatal(err)
	}
	z, _ := tbl.Column("Z")
	want := 0
	for row := 0; row < tbl.NumRows(); row++ {
		if c := z.Code(row); c == 0 || c == 1 {
			want++
		}
	}
	if int(h.Total()) != want {
		t.Fatalf("overlapping predicate target total %v, want %d (first-match would drop the Z=0 overlap)", h.Total(), want)
	}
	par, err := p.ResolveTarget(Target{Candidate: q.CandidatePreds[1].String()}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if par.Total() != h.Total() {
		t.Fatalf("parallel total %v != sequential %v", par.Total(), h.Total())
	}
}

// TestParallelTargetResolution asserts the parallel candidate-target scan
// agrees with a sequential one at every worker count.
func TestParallelTargetResolution(t *testing.T) {
	tbl := testDataset(t, 40_000, 15, 8, 24)
	e := New(tbl)
	p, err := e.Prepare(baseQuery())
	if err != nil {
		t.Fatal(err)
	}
	z, _ := tbl.Column("Z")
	for _, label := range []string{z.Dict.Value(0), z.Dict.Value(7)} {
		seq, err := p.ResolveTarget(Target{Candidate: label}, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 2, 8} {
			par, err := p.ResolveTarget(Target{Candidate: label}, workers)
			if err != nil {
				t.Fatal(err)
			}
			if par.Total() != seq.Total() {
				t.Fatalf("%s workers=%d total %v != %v", label, workers, par.Total(), seq.Total())
			}
			sc, pc := seq.Counts(), par.Counts()
			for j := range sc {
				if sc[j] != pc[j] {
					t.Fatalf("%s workers=%d count[%d] %v != %v", label, workers, j, pc[j], sc[j])
				}
			}
		}
	}
}

// TestPlanReuse runs one Plan repeatedly across executors and checks the
// answers match planning from scratch each time.
func TestPlanReuse(t *testing.T) {
	tbl := testDataset(t, 30_000, 15, 6, 25)
	e := New(tbl)
	p, err := e.Prepare(baseQuery())
	if err != nil {
		t.Fatal(err)
	}
	if p.NumCandidates() != 15 || p.Groups() != 6 {
		t.Fatalf("plan shape: %d candidates, %d groups", p.NumCandidates(), p.Groups())
	}
	target, err := p.ResolveTarget(Target{Uniform: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// FastMatch is excluded from the strict comparison: its asynchronous
	// marker makes the set of blocks read timing-dependent.
	for _, exec := range []Executor{Scan, ScanMatch} {
		opts := Options{Params: testParams(), Executor: exec, DisableCrossover: true, Seed: 3, Lookahead: 32}
		fromPlan, err := p.RunWithTarget(target, opts)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := e.RunWithTarget(baseQuery(), target, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(fromPlan.TopK) != len(fresh.TopK) {
			t.Fatalf("%v: topk %d != %d", exec, len(fromPlan.TopK), len(fresh.TopK))
		}
		for i := range fresh.TopK {
			if fromPlan.TopK[i].Label != fresh.TopK[i].Label {
				t.Fatalf("%v: topk[%d] %q != %q", exec, i, fromPlan.TopK[i].Label, fresh.TopK[i].Label)
			}
		}
	}
	if _, err := p.RunWithTarget(target, Options{
		Params: testParams(), Executor: FastMatch, DisableCrossover: true, Seed: 3, Lookahead: 32,
	}); err != nil {
		t.Fatal(err)
	}
}
