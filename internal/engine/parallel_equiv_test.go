package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"
)

// Worker-count equivalence suite: the sampling executors' chunk-committed
// rounds promise byte-identical results for ANY Options.Workers value —
// the planner makes every policy decision serially from committed state
// and per-worker partials merge with exact integer arithmetic (see
// sampler.go). This suite enforces the promise the same way
// TestSkipOnOffByteIdentical pins skip on/off: canonical JSON equality
// over results, IOStats, and the full OnProgress sequence, across all
// three storage backends, including runs cut short by a row budget or a
// mid-scan cancellation. Run under -race in CI, it also proves the
// worker pool shares no unsynchronized state.

func samplingExecutors() []Executor {
	return []Executor{ScanMatch, SyncMatch, FastMatch}
}

// progressLog returns an OnProgress hook appending each frame's
// canonical form (Elapsed zeroed — the one nondeterministic field) to
// seq.
func progressLog(t testing.TB, seq *[]string) func(Progress) {
	return func(p Progress) {
		p.Elapsed = 0
		b, err := json.Marshal(&p)
		if err != nil {
			t.Fatal(err)
		}
		*seq = append(*seq, string(b))
	}
}

func TestWorkerCountByteIdentical(t *testing.T) {
	for name, src := range cancelBackends(t) {
		eng := New(src)
		for _, exec := range samplingExecutors() {
			t.Run(fmt.Sprintf("%s/%s", name, exec), func(t *testing.T) {
				var wantRes string
				var wantIO IOStats
				var wantSeq []string
				for _, workers := range []int{1, 2, 4} {
					opts := equivOptions(exec, src.NumBlocks())
					opts.Workers = workers
					var seq []string
					opts.OnProgress = progressLog(t, &seq)
					res, err := eng.Run(baseQuery(), Target{Uniform: true}, opts)
					if err != nil {
						t.Fatalf("workers=%d: %v", workers, err)
					}
					requireSampled(t, exec, res)
					got := canonicalResult(t, res)
					if workers == 1 {
						wantRes, wantIO, wantSeq = got, res.IO, seq
						continue
					}
					if got != wantRes {
						t.Fatalf("workers=%d result diverges from workers=1:\n%s\nvs\n%s", workers, got, wantRes)
					}
					if res.IO != wantIO {
						t.Fatalf("workers=%d IOStats diverge: %+v vs %+v", workers, res.IO, wantIO)
					}
					if len(seq) != len(wantSeq) {
						t.Fatalf("workers=%d emitted %d progress frames, workers=1 emitted %d", workers, len(seq), len(wantSeq))
					}
					for i := range seq {
						if seq[i] != wantSeq[i] {
							t.Fatalf("workers=%d progress frame %d diverges:\n%s\nvs\n%s", workers, i, seq[i], wantSeq[i])
						}
					}
				}
			})
		}
	}
}

// TestWorkerCountByteIdenticalShortLookahead re-runs FastMatch with a
// marking window far smaller than the block space, forcing window
// retiling and the wrap-around split on every pass — the lookahead
// machinery the big-window suite above never exercises.
func TestWorkerCountByteIdenticalShortLookahead(t *testing.T) {
	tbl := testDataset(t, 40_000, 20, 8, 5)
	eng := New(tbl)
	for _, lookahead := range []int{3, 17} {
		t.Run(fmt.Sprintf("lookahead=%d", lookahead), func(t *testing.T) {
			var want string
			for _, workers := range []int{1, 2, 4} {
				opts := equivOptions(FastMatch, tbl.NumBlocks())
				opts.Lookahead = lookahead
				opts.Workers = workers
				res, err := eng.Run(baseQuery(), Target{Uniform: true}, opts)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				requireSampled(t, FastMatch, res)
				got := canonicalResult(t, res)
				if workers == 1 {
					want = got
				} else if got != want {
					t.Fatalf("workers=%d diverges from workers=1 at lookahead %d", workers, lookahead)
				}
			}
		})
	}
}

// TestWorkerCountByteIdenticalBudgetPartial pins the harder half of the
// determinism contract: a run stopped by a row budget must cut at the
// same committed block for every worker count, so even the partial
// result and its progress prefix are byte-identical.
func TestWorkerCountByteIdenticalBudgetPartial(t *testing.T) {
	tbl := testDataset(t, 40_000, 20, 8, 5)
	eng := New(tbl)
	for _, exec := range samplingExecutors() {
		t.Run(exec.String(), func(t *testing.T) {
			var wantRes string
			var wantSeq []string
			for _, workers := range []int{1, 2, 4} {
				opts := equivOptions(exec, tbl.NumBlocks())
				opts.Workers = workers
				opts.RowBudget = 3_000
				var seq []string
				opts.OnProgress = progressLog(t, &seq)
				res, err := eng.Run(baseQuery(), Target{Uniform: true}, opts)
				if !errors.Is(err, ErrBudgetExhausted) {
					t.Fatalf("workers=%d: want ErrBudgetExhausted, got %v", workers, err)
				}
				if res == nil || !res.Partial {
					t.Fatalf("workers=%d: no partial result", workers)
				}
				requireSampled(t, exec, res)
				got := canonicalResult(t, res)
				if workers == 1 {
					wantRes, wantSeq = got, seq
					continue
				}
				if got != wantRes {
					t.Fatalf("workers=%d budget partial diverges from workers=1:\n%s\nvs\n%s", workers, got, wantRes)
				}
				if fmt.Sprint(seq) != fmt.Sprint(wantSeq) {
					t.Fatalf("workers=%d budget-partial progress diverges", workers)
				}
			}
		})
	}
}

// TestWorkerCountByteIdenticalCancelPartial does the same for a filter
// that cancels the context after a fixed number of rows. The trigger row
// lands inside the same planned chunk for every worker count (the
// planner's read plan never depends on workers), and the planner only
// observes the guard between chunks — so the cut, and the partial, are
// deterministic even though worker interleaving within the chunk is not.
func TestWorkerCountByteIdenticalCancelPartial(t *testing.T) {
	tbl := testDataset(t, 40_000, 20, 8, 5)
	eng := New(tbl)
	for _, exec := range samplingExecutors() {
		t.Run(exec.String(), func(t *testing.T) {
			var want string
			for _, workers := range []int{1, 2, 4} {
				ctx, cancel := context.WithCancel(context.Background())
				q := baseQuery()
				q.Filter = cancelAfterRows(cancel, 5_000)
				opts := equivOptions(exec, tbl.NumBlocks())
				opts.Workers = workers
				res, err := eng.RunContext(ctx, q, Target{Uniform: true}, opts)
				cancel()
				if !errors.Is(err, ErrCanceled) {
					t.Fatalf("workers=%d: want ErrCanceled, got %v", workers, err)
				}
				if res == nil || !res.Partial {
					t.Fatalf("workers=%d: no partial result", workers)
				}
				requireSampled(t, exec, res)
				got := canonicalResult(t, res)
				if workers == 1 {
					want = got
				} else if got != want {
					t.Fatalf("workers=%d cancel partial diverges from workers=1:\n%s\nvs\n%s", workers, got, want)
				}
			}
		})
	}
}

// TestSamplerStatsAccounting checks the per-worker diagnostics: worker
// block/tuple counts must sum to the run's I/O totals, and the effective
// width must respect the requested worker count.
func TestSamplerStatsAccounting(t *testing.T) {
	tbl := testDataset(t, 40_000, 20, 8, 5)
	eng := New(tbl)
	for _, workers := range []int{1, 3} {
		opts := equivOptions(SyncMatch, tbl.NumBlocks())
		opts.Workers = workers
		res, err := eng.Run(baseQuery(), Target{Uniform: true}, opts)
		if err != nil {
			t.Fatal(err)
		}
		ss := res.Sampler
		if ss == nil {
			t.Fatalf("workers=%d: sampling run carries no SamplerStats", workers)
		}
		if ss.Workers != workers {
			t.Fatalf("effective workers %d, requested %d", ss.Workers, workers)
		}
		if ss.Chunks <= 0 {
			t.Fatalf("workers=%d: no chunks committed", workers)
		}
		var blocks, tuples int64
		for i := range ss.WorkerBlocks {
			blocks += ss.WorkerBlocks[i]
			tuples += ss.WorkerTuples[i]
		}
		if blocks != res.IO.BlocksRead {
			t.Fatalf("worker blocks sum %d != BlocksRead %d", blocks, res.IO.BlocksRead)
		}
		if tuples != res.IO.TuplesRead {
			t.Fatalf("worker tuples sum %d != TuplesRead %d", tuples, res.IO.TuplesRead)
		}
		if workers > 1 {
			busy := 0
			for _, b := range ss.WorkerBlocks {
				if b > 0 {
					busy++
				}
			}
			if busy < 2 {
				t.Fatalf("workers=%d but only %d worker(s) read blocks", workers, busy)
			}
		}
	}
}
