package engine

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"fastmatch/internal/obs/trace"
)

// Trace equivalence suite: attaching a trace to a run must be invisible
// to its answer. Every executor, on every storage backend, must return a
// byte-identical Result (including IOStats — the observer only reads the
// counters) with tracing on and off, and the span tree's per-span IO must
// sum exactly to the run's Result.IO. The second property is what makes
// traces trustworthy for debugging: no I/O the run performed is missing
// from the tree, none is double-counted.

func traceOptions(exec Executor, nb int) Options {
	return equivOptions(exec, nb)
}

func TestTraceByteIdenticalAndIOSums(t *testing.T) {
	tbl := skipTestTable(t)
	for backend, eng := range skipTestBackends(t, tbl) {
		for qname, q := range skipQueries(t, eng) {
			for _, exec := range allExecutors() {
				t.Run(fmt.Sprintf("%s/%s/%s", backend, qname, exec), func(t *testing.T) {
					opts := exec.options(traceOptions(exec.Executor, eng.Source().NumBlocks()))
					plain, err := eng.Run(q, Target{Uniform: true}, opts)
					if err != nil {
						t.Fatal(err)
					}
					tr := trace.New("test-query")
					opts.Trace = tr
					traced, err := eng.Run(q, Target{Uniform: true}, opts)
					if err != nil {
						t.Fatal(err)
					}
					requireSampled(t, exec.Executor, plain)
					tr.End()
					if got, want := canonicalResult(t, traced), canonicalResult(t, plain); got != want {
						t.Fatalf("traced run diverges from untraced:\n%s\nvs\n%s", got, want)
					}
					snap := tr.Snapshot()
					if got, want := snap.SumIO(), TraceIO(traced.IO); got != want {
						t.Fatalf("span IO sum %+v != result IO %+v", got, want)
					}
				})
			}
		}
	}
}

// TestTraceSpanShape pins the documented tree: a "run" root carrying the
// executor attribute, phase children for the sampling executors
// (stage1, stage2.roundN, stage3), one worker child per scan worker, and
// plan/groups/candidates/skip_masks spans from PrepareTraced.
func TestTraceSpanShape(t *testing.T) {
	tbl := skipTestTable(t)
	eng := New(tbl)
	q := skipQueries(t, eng)["pred-cands"]

	t.Run("plan", func(t *testing.T) {
		tr := trace.New("plan-trace")
		if _, err := eng.PrepareTraced(q, tr); err != nil {
			t.Fatal(err)
		}
		tr.End()
		snap := tr.Snapshot()
		plan := snap.Find("plan")
		if plan == nil {
			t.Fatalf("no plan span in %+v", snap.Spans)
		}
		for _, child := range []string{"groups", "candidates", "skip_masks"} {
			if snap.Find(child) == nil {
				t.Fatalf("plan span missing %q child", child)
			}
		}
	})

	run := func(t *testing.T, exec Executor, workers int) trace.Snapshot {
		t.Helper()
		opts := traceOptions(exec, tbl.NumBlocks())
		opts.Workers = workers
		tr := trace.New("shape")
		opts.Trace = tr
		if _, err := eng.Run(q, Target{Uniform: true}, opts); err != nil {
			t.Fatal(err)
		}
		tr.End()
		return tr.Snapshot()
	}

	t.Run("run-root", func(t *testing.T) {
		for _, exec := range allExecutors() {
			snap := run(t, exec.Executor, 4)
			rs := snap.Find("run")
			if rs == nil {
				t.Fatalf("%s: no run span", exec)
			}
			if got := rs.Attrs["executor"]; got != exec.Executor.String() {
				t.Fatalf("%s: executor attr = %v", exec, got)
			}
			if got := rs.Attrs["crossover"]; got != false {
				t.Fatalf("%s: crossover attr = %v with DisableCrossover set", exec, got)
			}
			if f, ok := rs.Attrs["predicted_fraction"].(float64); !ok || f <= 0 {
				t.Fatalf("%s: predicted_fraction attr = %v", exec, rs.Attrs["predicted_fraction"])
			}
			if snap.Find("resolve_target") == nil {
				t.Fatalf("%s: no resolve_target span", exec)
			}
			if len(rs.Children) == 0 {
				t.Fatalf("%s: run span has no children", exec)
			}
		}
	})

	t.Run("scan-workers", func(t *testing.T) {
		// Workers claim scanChunkBlocks-block chunks, so the table needs
		// at least three chunks to keep three workers busy.
		big := testDataset(t, 3*scanChunkBlocks*64, 20, 8, 5)
		opts := traceOptions(Scan, big.NumBlocks())
		opts.Workers = 3
		tr := trace.New("shape")
		opts.Trace = tr
		if _, err := New(big).Run(baseQuery(), Target{Uniform: true}, opts); err != nil {
			t.Fatal(err)
		}
		tr.End()
		snap := tr.Snapshot()
		for w := 0; w < 3; w++ {
			sp := snap.Find(fmt.Sprintf("worker%d", w))
			if sp == nil {
				t.Fatalf("no worker%d span", w)
			}
			if sp.IO == nil {
				t.Fatalf("worker%d span carries no IO", w)
			}
			if _, ok := sp.Attrs["blocks"]; !ok {
				t.Fatalf("worker%d span has no blocks attr", w)
			}
		}
	})

	t.Run("sampler-phases", func(t *testing.T) {
		// The binned-measure query keeps all 8 Z values in play, so the
		// samplers need stage-2 rounds to separate them.
		bq := skipQueries(t, eng)["binned-measure"]
		for _, exec := range []Executor{ScanMatch, SyncMatch, FastMatch} {
			opts := traceOptions(exec, tbl.NumBlocks())
			// A small stage-1 draw can't separate 8 live candidates at a
			// tight epsilon, so stage 2 must run rounds.
			opts.Params.Stage1Samples = 256
			opts.Params.Epsilon = 0.02
			tr := trace.New("phases")
			opts.Trace = tr
			res, err := eng.Run(bq, Target{Uniform: true}, opts)
			if err != nil {
				t.Fatal(err)
			}
			requireSampled(t, exec, res)
			tr.End()
			snap := tr.Snapshot()
			if snap.Find("stage1") == nil {
				t.Fatalf("%s: no stage1 span", exec)
			}
			rs := snap.Find("run")
			rounds := 0
			for i := range rs.Children {
				if strings.HasPrefix(rs.Children[i].Name, "stage2.round") {
					rounds++
				}
			}
			if rounds != res.Stats.Rounds {
				t.Fatalf("%s: %d stage2 round spans, result reports %d rounds (children %+v)",
					exec, rounds, res.Stats.Rounds, rs.Children)
			}
			if res.Stats.Rounds == 0 {
				t.Fatalf("%s: query converged without stage-2 rounds; pick a harder query", exec)
			}
		}
	})
}

// TestTraceInterruptedRunStillSums cancels a run mid-flight and checks
// the salvage path: the partial result's IO must still equal the span
// tree's sum (the residual lands in the closing "tail" span).
func TestTraceInterruptedRunStillSums(t *testing.T) {
	tbl := skipTestTable(t)
	eng := New(tbl)
	q := skipQueries(t, eng)["pred-cands"]
	plan, err := eng.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	opts := traceOptions(FastMatch, tbl.NumBlocks())
	opts.RowBudget = 512 // interrupt long before exhaustion
	tr := trace.New("interrupted")
	opts.Trace = tr
	res, err := plan.RunContext(context.Background(), Target{Uniform: true}, opts)
	if res == nil {
		t.Fatal(err)
	}
	if !res.Partial {
		t.Fatal("MaxBlocks run was not partial; raise the table size or lower the budget")
	}
	tr.End()
	if got, want := tr.Snapshot().SumIO(), TraceIO(res.IO); got != want {
		t.Fatalf("interrupted span IO sum %+v != result IO %+v", got, want)
	}
}
