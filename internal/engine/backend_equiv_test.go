package engine

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"fastmatch/internal/colstore"
)

// Backend-equivalence suite: every executor must return byte-identical
// results and IOStats whether the engine reads the heap-resident table
// or the zero-copy mmap snapshot backend. The snapshot preserves the
// block layout and row permutation exactly, so any divergence is a
// backend bug, not sampling noise.
//
// Determinism note: FastMatch's lookahead marking is synchronous and
// deterministic for any window size (see sampler.go); the suite pins
// Lookahead ≥ NumBlocks only so one marking window covers the whole
// block space, the configuration the paper's Algorithm 3 measurements
// use. parallel_equiv_test.go covers the short-window tilings.

// mmapTwin writes tbl to a v2 snapshot and opens it with the mmap
// backend.
func mmapTwin(t testing.TB, tbl *colstore.Table) *colstore.MmapTable {
	t.Helper()
	path := t.TempDir() + "/twin.fms"
	if err := colstore.WriteSnapshotFile(tbl, path); err != nil {
		t.Fatal(err)
	}
	mt, err := colstore.OpenMmapFile(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mt.Close() })
	return mt
}

// canonicalResult strips the only nondeterministic field (wall-clock
// Duration) and renders the rest as JSON, so equality is byte equality.
func canonicalResult(t testing.TB, res *Result) string {
	t.Helper()
	c := *res
	c.Duration = 0
	b, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// requireSampled fails the test when a sampling executor's run came back
// without sampler diagnostics, i.e. Scan answered it: the suites calling
// it exist to test the sampler, and a crossover would make them compare
// Scan with Scan.
func requireSampled(t testing.TB, exec Executor, res *Result) {
	t.Helper()
	if exec != Scan && res.Sampler == nil {
		t.Fatalf("%s run was answered by Scan, not the sampler", exec)
	}
}

func equivOptions(exec Executor, nb int) Options {
	return Options{
		Params:   testParams(),
		Executor: exec,
		// The test tables are small enough that every sampling run
		// would cross over to Scan; the suites here test the sampler.
		DisableCrossover: true,
		// Deterministic async marking: one window spans all blocks.
		Lookahead:  nb + 1,
		StartBlock: -1,
		Seed:       11,
		Workers:    4,
	}
}

// execCase is one executor configuration the equivalence suites sweep.
// Scan runs twice: "Scan" pins one worker, the sequential reference, and
// "ParallelScan" keeps the suite's Workers (above 1), so every suite holds
// the multi-worker Scan to the same expectations.
type execCase struct {
	Executor
	name    string
	workers int // > 0 overrides the suite's Options.Workers
}

func (c execCase) String() string { return c.name }

// options applies the case to a suite's options.
func (c execCase) options(o Options) Options {
	o.Executor = c.Executor
	if c.workers > 0 {
		o.Workers = c.workers
	}
	return o
}

func allExecutors() []execCase {
	return []execCase{
		{Scan, "Scan", 1},
		{Scan, "ParallelScan", 0},
		{ScanMatch, "ScanMatch", 0},
		{SyncMatch, "SyncMatch", 0},
		{FastMatch, "FastMatch", 0},
	}
}

func TestBackendsAreByteIdentical(t *testing.T) {
	tbl := testDataset(t, 40_000, 20, 8, 5)
	inmem := New(tbl)
	mmap := New(mmapTwin(t, tbl))

	queries := []struct {
		name   string
		q      Query
		target Target
	}{
		{"uniform", Query{Z: "Z", X: []string{"X"}}, Target{Uniform: true}},
		{"composite-groups", Query{Z: "Z", X: []string{"X", "W"}}, Target{Uniform: true}},
		{"known-candidates", Query{Z: "Z", X: []string{"X"}},
			Target{Uniform: true}},
	}
	zc, err := tbl.Column("Z")
	if err != nil {
		t.Fatal(err)
	}
	queries[2].q.KnownCandidates = []string{zc.Dict.Value(0), zc.Dict.Value(1), zc.Dict.Value(2)}
	queries = append(queries, struct {
		name   string
		q      Query
		target Target
	}{"candidate-target", Query{Z: "Z", X: []string{"X"}}, Target{Candidate: zc.Dict.Value(0)}})

	for _, qc := range queries {
		for _, exec := range allExecutors() {
			t.Run(fmt.Sprintf("%s/%s", qc.name, exec), func(t *testing.T) {
				opts := exec.options(equivOptions(exec.Executor, tbl.NumBlocks()))
				a, err := inmem.Run(qc.q, qc.target, opts)
				if err != nil {
					t.Fatal(err)
				}
				b, err := mmap.Run(qc.q, qc.target, opts)
				if err != nil {
					t.Fatal(err)
				}
				requireSampled(t, exec.Executor, a)
				if a.IO != b.IO {
					t.Fatalf("IOStats diverge: inmem %+v, mmap %+v", a.IO, b.IO)
				}
				ca, cb := canonicalResult(t, a), canonicalResult(t, b)
				if ca != cb {
					t.Fatalf("results diverge:\ninmem: %s\nmmap:  %s", ca, cb)
				}
				// Belt and braces: the unexported parts too.
				a.Duration, b.Duration = 0, 0
				if !reflect.DeepEqual(a, b) {
					t.Fatal("results deep-compare unequal despite identical JSON")
				}
			})
		}
	}
}

// TestBackendEquivalenceMeasureBiasedView checks the derived-view path:
// a view built from the mmap backend must equal one built from the heap
// table (same seed, same multiplicities).
func TestBackendEquivalenceMeasureBiasedView(t *testing.T) {
	tbl := testDataset(t, 10_000, 10, 6, 9)
	mt := mmapTwin(t, tbl)
	va, err := MeasureBiasedView(tbl, "M", 5_000, 3)
	if err != nil {
		t.Fatal(err)
	}
	vb, err := MeasureBiasedView(mt, "M", 5_000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if va.NumRows() != vb.NumRows() {
		t.Fatalf("view rows diverge: %d vs %d", va.NumRows(), vb.NumRows())
	}
	ca, _ := va.Column("Z")
	cb, _ := vb.Column("Z")
	for i := 0; i < va.NumRows(); i++ {
		if ca.Code(i) != cb.Code(i) {
			t.Fatalf("view row %d diverges", i)
		}
	}
}

// TestBackendsConcurrent hammers both backends from many goroutines
// (run with -race) and checks every run agrees with a precomputed
// expectation — the mmap pages are shared and read-only, so concurrent
// access must be free of both races and divergence.
func TestBackendsConcurrent(t *testing.T) {
	tbl := testDataset(t, 30_000, 15, 8, 6)
	engines := map[string]*Engine{
		"inmem": New(tbl),
		"mmap":  New(mmapTwin(t, tbl)),
	}
	q := Query{Z: "Z", X: []string{"X"}}
	target := Target{Uniform: true}
	want := map[Executor]string{}
	for _, exec := range []Executor{Scan, FastMatch} {
		res, err := engines["inmem"].Run(q, target, equivOptions(exec, tbl.NumBlocks()))
		if err != nil {
			t.Fatal(err)
		}
		want[exec] = canonicalResult(t, res)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for name, e := range engines {
		for _, exec := range []Executor{Scan, FastMatch} {
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(name string, e *Engine, exec Executor) {
					defer wg.Done()
					res, err := e.Run(q, target, equivOptions(exec, tbl.NumBlocks()))
					if err != nil {
						errs <- fmt.Errorf("%s/%s: %v", name, exec, err)
						return
					}
					if got := canonicalResult(t, res); got != want[exec] {
						errs <- fmt.Errorf("%s/%s diverged from expected result", name, exec)
					}
				}(name, e, exec)
			}
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
