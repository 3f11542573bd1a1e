package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"fastmatch/internal/colstore"
	"fastmatch/internal/core"
	"fastmatch/internal/datagen"
	"fastmatch/internal/engine"
	"fastmatch/internal/histogram"
)

// The distributed equivalence suite: a K-shard coordinated answer must
// be BYTE-identical to a single node over the concatenated data — same
// result JSON, same IOStats, same progress-frame sequence — for every
// executor, including runs cut short by a row budget or cancellation.
// This is the merge-algebra contract from the paper (sampler state is a
// commutative monoid under Batch.Merge) plus the walk-equivalence
// argument in package cluster's doc: shard boundaries on chunk-commit
// positions make segment handoffs invisible.

// planShard adapts a local engine.Plan as a cluster Shard — the
// in-process twin of the HTTP client, so the suite pins the coordinator
// algebra without network nondeterminism.
type planShard struct {
	name string
	plan *engine.Plan
	// fail, when set, makes every call after the first `allow` calls
	// return an error (simulating a shard death mid-run).
	fail  error
	allow int64
	calls atomic.Int64
}

func (p *planShard) Name() string { return p.name }

func (p *planShard) check() error {
	if p.fail != nil && p.calls.Add(1) > p.allow {
		return p.fail
	}
	return nil
}

func (p *planShard) Meta(ctx context.Context) (*engine.ShardMeta, error) {
	if err := p.check(); err != nil {
		return nil, err
	}
	m := p.plan.ShardMeta()
	return &m, nil
}

func (p *planShard) Segment(ctx context.Context, seg *engine.ShardSegment) (*engine.ShardSegmentResult, error) {
	if err := p.check(); err != nil {
		return nil, err
	}
	return p.plan.RunShardSegment(ctx, seg)
}

// clusterDataset builds one table plus its K-shard split, with shard
// boundaries aligned to chunk commits (blockSize=64 -> 4096-row chunks).
func clusterDataset(t testing.TB, rows, k int) (*colstore.Table, []*colstore.Table) {
	t.Helper()
	ds, err := datagen.Generate(datagen.Spec{
		Name: "t", Rows: rows, Seed: 7, Clusters: 6, BlockSize: 64,
		Columns: []datagen.ColumnSpec{
			{Name: "Z", Cardinality: 20, Skew: 0.8, ClusterConcentration: 0.5},
			{Name: "X", Cardinality: 8, Skew: 0.3, ClusterConcentration: 0.5},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	tbl := ds.Table
	align := tbl.BlockSize() * engine.ChunkBlocks(tbl.BlockSize())
	shards, err := colstore.ShardTables(tbl, k, align)
	if err != nil {
		t.Fatal(err)
	}
	return tbl, shards
}

func testParams() core.Params {
	return core.Params{
		K: 3, Epsilon: 0.10, Delta: 0.05, Sigma: 0.002,
		Stage1Samples: 10_000, Metric: histogram.MetricL1,
	}
}

func clusterOptions(exec engine.Executor) engine.Options {
	return engine.Options{
		Params:   testParams(),
		Executor: exec,
		// The suite's tables are small enough that every sampling run
		// would cross over to Scan; it tests the distributed sampler.
		DisableCrossover: true,
		// Small marking window that divides the chunk size (64 blocks), so
		// FastMatch tile anchors coincide on both sides of every shard
		// boundary.
		Lookahead:  8,
		StartBlock: -1,
		Seed:       11,
	}
}

func baseQuery() engine.Query { return engine.Query{Z: "Z", X: []string{"X"}} }

func shardSet(t testing.TB, parts []*colstore.Table) []Shard {
	t.Helper()
	out := make([]Shard, len(parts))
	for i, part := range parts {
		plan, err := engine.New(part).Prepare(baseQuery())
		if err != nil {
			t.Fatal(err)
		}
		out[i] = &planShard{name: fmt.Sprintf("s%d", i), plan: plan}
	}
	return out
}

func canonical(t testing.TB, res *engine.Result) string {
	t.Helper()
	c := *res
	c.Duration = 0
	b, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func progressLog(t testing.TB, seq *[]string) func(engine.Progress) {
	return func(p engine.Progress) {
		p.Elapsed = 0
		b, err := json.Marshal(&p)
		if err != nil {
			t.Fatal(err)
		}
		*seq = append(*seq, string(b))
	}
}

func allExecutors() []engine.Executor {
	return []engine.Executor{engine.Scan, engine.ScanMatch, engine.SyncMatch, engine.FastMatch}
}

func isSampling(exec engine.Executor) bool {
	return exec != engine.Scan
}

// TestCoordinatedByteIdentical is the core contract: for K in {1,2,3}
// shards, every executor's coordinated answer equals the single-node
// answer over the concatenated data byte-for-byte — result, IOStats,
// and (for the sampling executors, whose frames are deterministic) the
// full progress sequence.
func TestCoordinatedByteIdentical(t *testing.T) {
	const rows = 40_000
	tbl, _ := clusterDataset(t, rows, 1)
	single := engine.New(tbl)
	for _, exec := range allExecutors() {
		opts := clusterOptions(exec)
		var wantSeq []string
		opts.OnProgress = progressLog(t, &wantSeq)
		res, err := single.Run(baseQuery(), engine.Target{Uniform: true}, opts)
		if err != nil {
			t.Fatalf("%s single-node: %v", exec, err)
		}
		if isSampling(exec) && res.Sampler == nil {
			t.Fatalf("%s single-node run was answered by Scan, not the sampler", exec)
		}
		want := canonical(t, res)
		for k := 1; k <= 3; k++ {
			t.Run(fmt.Sprintf("%s/k=%d", exec, k), func(t *testing.T) {
				_, parts := clusterDataset(t, rows, k)
				coord := New(shardSet(t, parts)...)
				copts := clusterOptions(exec)
				var seq []string
				copts.OnProgress = progressLog(t, &seq)
				cres, err := coord.Run(context.Background(), engine.Target{Uniform: true}, copts)
				if err != nil {
					t.Fatalf("coordinated: %v", err)
				}
				if cres.Degraded || len(cres.Missing) != 0 {
					t.Fatalf("healthy cluster reported degraded: %+v", cres)
				}
				if got := canonical(t, cres.Result); got != want {
					t.Fatalf("k=%d result diverges from single node:\n%s\nvs\n%s", k, got, want)
				}
				if cres.Result.IO != res.IO {
					t.Fatalf("k=%d IOStats diverge: %+v vs %+v", k, cres.Result.IO, res.IO)
				}
				if isSampling(exec) {
					if len(seq) != len(wantSeq) {
						t.Fatalf("k=%d emitted %d progress frames, single node %d", k, len(seq), len(wantSeq))
					}
					for i := range seq {
						if seq[i] != wantSeq[i] {
							t.Fatalf("k=%d progress frame %d diverges:\n%s\nvs\n%s", k, i, seq[i], wantSeq[i])
						}
					}
				}
			})
		}
	}
}

// TestCoordinatedCandidateTarget pins the scatter-gather target path:
// a candidate target is itself resolved by summing per-shard exact
// histograms, and must match the single node bit-for-bit.
func TestCoordinatedCandidateTarget(t *testing.T) {
	const rows = 40_000
	tbl, parts := clusterDataset(t, rows, 3)
	single := engine.New(tbl)
	target := engine.Target{Candidate: "Z_1"}
	for _, exec := range []engine.Executor{engine.Scan, engine.SyncMatch} {
		opts := clusterOptions(exec)
		res, err := single.Run(baseQuery(), target, opts)
		if err != nil {
			t.Fatalf("%s single-node: %v", exec, err)
		}
		coord := New(shardSet(t, parts)...)
		cres, err := coord.Run(context.Background(), target, clusterOptions(exec))
		if err != nil {
			t.Fatalf("%s coordinated: %v", exec, err)
		}
		if got, want := canonical(t, cres.Result), canonical(t, res); got != want {
			t.Fatalf("%s candidate-target result diverges:\n%s\nvs\n%s", exec, got, want)
		}
	}
}

// TestCoordinatedBudgetPartial pins the interruption contract: a row
// budget must stop a coordinated run at the same committed block as the
// single-node run — identical partial result bytes, identical typed
// error text.
func TestCoordinatedBudgetPartial(t *testing.T) {
	const rows = 40_000
	tbl, _ := clusterDataset(t, rows, 1)
	single := engine.New(tbl)
	for _, exec := range allExecutors() {
		for _, budget := range []int64{3_000, 12_000} {
			t.Run(fmt.Sprintf("%s/budget=%d", exec, budget), func(t *testing.T) {
				opts := clusterOptions(exec)
				opts.RowBudget = budget
				var wantSeq []string
				opts.OnProgress = progressLog(t, &wantSeq)
				res, err := single.Run(baseQuery(), engine.Target{Uniform: true}, opts)
				if err == nil || !errors.Is(err, engine.ErrBudgetExhausted) {
					t.Fatalf("single-node: expected budget stop, got %v", err)
				}
				for k := 2; k <= 3; k++ {
					_, parts := clusterDataset(t, rows, k)
					coord := New(shardSet(t, parts)...)
					copts := clusterOptions(exec)
					copts.RowBudget = budget
					var seq []string
					copts.OnProgress = progressLog(t, &seq)
					cres, cerr := coord.Run(context.Background(), engine.Target{Uniform: true}, copts)
					if cerr == nil || !errors.Is(cerr, engine.ErrBudgetExhausted) {
						t.Fatalf("k=%d: expected budget stop, got %v", k, cerr)
					}
					if cerr.Error() != err.Error() {
						t.Fatalf("k=%d stop error diverges: %q vs %q", k, cerr, err)
					}
					if res == nil || cres == nil {
						t.Fatalf("k=%d: missing partial result (%v, %v)", k, res, cres)
					}
					if got, want := canonical(t, cres.Result), canonical(t, res); got != want {
						t.Fatalf("k=%d partial result diverges:\n%s\nvs\n%s", k, got, want)
					}
					if isSampling(exec) && len(seq) != len(wantSeq) {
						t.Fatalf("k=%d partial emitted %d frames, single node %d", k, len(seq), len(wantSeq))
					}
				}
			})
		}
	}
}

// TestCoordinatedCancel pins cancellation: a pre-canceled context must
// surface the same typed error as the single-node guard.
func TestCoordinatedCancel(t *testing.T) {
	_, parts := clusterDataset(t, 40_000, 2)
	coord := New(shardSet(t, parts)...)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := coord.Run(ctx, engine.Target{Uniform: true}, clusterOptions(engine.SyncMatch))
	if err == nil || !errors.Is(err, engine.ErrCanceled) {
		t.Fatalf("expected ErrCanceled, got %v", err)
	}
}

// TestCoordinatedShardLoss pins degraded-but-honest: a shard that dies
// mid-run yields a 200-style partial — Partial:true, the dead shard
// named in Missing, totals covering only data actually read — never an
// error and never a silently wrong total.
func TestCoordinatedShardLoss(t *testing.T) {
	const rows = 40_000
	for _, exec := range allExecutors() {
		t.Run(exec.String(), func(t *testing.T) {
			_, parts := clusterDataset(t, rows, 3)
			shards := shardSet(t, parts)
			// Let the dying shard answer its meta, then fail its first
			// segment call — a death between connect and execution.
			dying := shards[1].(*planShard)
			dying.fail = errors.New("connection refused")
			dying.allow = 1
			coord := New(shards...)
			cres, err := coord.Run(context.Background(), engine.Target{Uniform: true}, clusterOptions(exec))
			if err != nil {
				t.Fatalf("shard loss must degrade, not error: %v", err)
			}
			if !cres.Degraded {
				t.Fatal("shard loss not reported as degraded")
			}
			if len(cres.Missing) != 1 || cres.Missing[0] != "s1" {
				t.Fatalf("missing shards %v, want [s1]", cres.Missing)
			}
			if !cres.Result.Partial || cres.Result.Exact {
				t.Fatalf("degraded run must be Partial and not Exact: partial=%v exact=%v",
					cres.Result.Partial, cres.Result.Exact)
			}
			var unhealthy int
			for _, s := range cres.Shards {
				if !s.Healthy {
					unhealthy++
					if s.Error == "" {
						t.Fatal("dead shard status carries no error")
					}
				}
			}
			if unhealthy != 1 {
				t.Fatalf("%d unhealthy shards, want 1", unhealthy)
			}
			// Honest totals: the fold can only contain data actually read.
			maxRows := int64(parts[0].NumRows() + parts[1].NumRows() + parts[2].NumRows())
			if cres.Result.IO.TuplesRead > maxRows {
				t.Fatalf("degraded run claims %d tuples read of %d total", cres.Result.IO.TuplesRead, maxRows)
			}
		})
	}
}

// TestCoordinatedDeadAtConnect: a shard unreachable at connect time
// degrades the run up front; all shards unreachable is an error.
func TestCoordinatedDeadAtConnect(t *testing.T) {
	_, parts := clusterDataset(t, 40_000, 2)
	shards := shardSet(t, parts)
	dead := shards[1].(*planShard)
	dead.fail = errors.New("no route to host")
	dead.allow = 0
	coord := New(shards...)
	cres, err := coord.Run(context.Background(), engine.Target{Uniform: true}, clusterOptions(engine.ScanMatch))
	if err != nil {
		t.Fatalf("dead-at-connect must degrade, not error: %v", err)
	}
	if !cres.Degraded || len(cres.Missing) != 1 || cres.Missing[0] != "s1" {
		t.Fatalf("expected degraded run missing s1, got %+v", cres)
	}
	if !cres.Result.Partial {
		t.Fatal("degraded run must be Partial")
	}

	for _, s := range shards {
		ps := s.(*planShard)
		ps.fail = errors.New("no route to host")
		ps.allow = 0
		ps.calls.Store(0)
	}
	if _, err := New(shards...).Run(context.Background(), engine.Target{Uniform: true}, clusterOptions(engine.ScanMatch)); err == nil {
		t.Fatal("all shards unreachable must be an error")
	}
}

// TestCoordinatedAudit pins the coordinated audit path: grading a
// coordinated sampling answer against the coordinated exact reference
// must match engine.AuditRun's grade of the single-node equivalents.
func TestCoordinatedAudit(t *testing.T) {
	const rows = 40_000
	tbl, parts := clusterDataset(t, rows, 3)
	single := engine.New(tbl)
	opts := clusterOptions(engine.SyncMatch)
	plan, err := single.Prepare(baseQuery())
	if err != nil {
		t.Fatal(err)
	}
	res, err := plan.Run(engine.Target{Uniform: true}, opts)
	if err != nil {
		t.Fatal(err)
	}
	target, err := plan.ResolveTarget(engine.Target{Uniform: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.AuditRun(context.Background(), plan, target, res, opts)
	if err != nil {
		t.Fatal(err)
	}

	coord := New(shardSet(t, parts)...)
	cres, err := coord.Run(context.Background(), engine.Target{Uniform: true}, clusterOptions(engine.SyncMatch))
	if err != nil {
		t.Fatal(err)
	}
	got, err := coord.Audit(context.Background(), engine.Target{Uniform: true}, cres.Result, opts)
	if err != nil {
		t.Fatal(err)
	}
	// The audit timing/IO fields reflect the reference pass's own cost;
	// zero both sides before comparing.
	want.ExactDuration, got.ExactDuration = 0, 0
	wb, _ := json.Marshal(want)
	gb, _ := json.Marshal(got)
	if string(wb) != string(gb) {
		t.Fatalf("coordinated audit diverges:\n%s\nvs\n%s", gb, wb)
	}

	if _, err := coord.Audit(context.Background(), engine.Target{Uniform: true}, &engine.Result{}, opts); err == nil {
		t.Fatal("empty answer must be refused")
	}
	partial := *cres.Result
	partial.Partial = true
	if _, err := coord.Audit(context.Background(), engine.Target{Uniform: true}, &partial, opts); err == nil {
		t.Fatal("partial answer must be refused")
	}
}

// serialShard records how many segment calls of a shard set are in
// flight at once, and the Workers every segment carried.
type serialShard struct {
	*planShard
	inflight, peak *atomic.Int64
	workers        chan int
}

func (s serialShard) Segment(ctx context.Context, seg *engine.ShardSegment) (*engine.ShardSegmentResult, error) {
	n := s.inflight.Add(1)
	defer s.inflight.Add(-1)
	for {
		p := s.peak.Load()
		if n <= p || s.peak.CompareAndSwap(p, n) {
			break
		}
	}
	s.workers <- seg.Workers
	return s.planShard.Segment(ctx, seg)
}

// TestCoordinatedCrossover pins the shared crossover decision: a
// coordinated sampling run over a table small enough to cross over is
// answered by a Scan chained through the shards one at a time, each
// segment on the run's Workers, and its result bytes equal the
// single-node crossover's for K in {1, 2, 3}. Progress frames are not
// compared: a coordinated Scan emits one per shard, a single-node Scan
// one every few hundred blocks.
func TestCoordinatedCrossover(t *testing.T) {
	const rows = 40_000
	tbl, _ := clusterDataset(t, rows, 1)
	single := engine.New(tbl)
	for _, exec := range []engine.Executor{engine.ScanMatch, engine.SyncMatch, engine.FastMatch} {
		opts := clusterOptions(exec)
		opts.DisableCrossover = false
		opts.Workers = 3
		res, err := single.Run(baseQuery(), engine.Target{Uniform: true}, opts)
		if err != nil {
			t.Fatalf("%s single-node: %v", exec, err)
		}
		if !res.Crossover {
			t.Fatalf("%s single-node run did not cross over", exec)
		}
		want := canonical(t, res)
		for k := 1; k <= 3; k++ {
			t.Run(fmt.Sprintf("%s/k=%d", exec, k), func(t *testing.T) {
				_, parts := clusterDataset(t, rows, k)
				var inflight, peak atomic.Int64
				workers := make(chan int, k)
				shards := shardSet(t, parts)
				for i, sh := range shards {
					shards[i] = serialShard{planShard: sh.(*planShard), inflight: &inflight, peak: &peak, workers: workers}
				}
				cres, err := New(shards...).Run(context.Background(), engine.Target{Uniform: true}, opts)
				if err != nil {
					t.Fatalf("coordinated: %v", err)
				}
				if got := canonical(t, cres.Result); got != want {
					t.Fatalf("k=%d crossover result diverges from single node:\n%s\nvs\n%s", k, got, want)
				}
				if p := peak.Load(); p != 1 {
					t.Fatalf("k=%d crossover ran %d shard segments at once, want them chained", k, p)
				}
				close(workers)
				for w := range workers {
					if w != opts.Workers {
						t.Fatalf("k=%d crossover segment carried Workers %d, want the run's %d", k, w, opts.Workers)
					}
				}
			})
		}
	}
}

// tamperShard answers sampling segments with the real shard's answer
// altered by tamper, so the coordinator meets answers it must not trust.
type tamperShard struct {
	*planShard
	tamper func(*engine.ShardSegment, *engine.ShardSegmentResult)
}

func (s tamperShard) Segment(ctx context.Context, seg *engine.ShardSegment) (*engine.ShardSegmentResult, error) {
	req := *seg
	res, err := s.planShard.Segment(ctx, seg)
	if err == nil && (seg.Kind == engine.SegStage1 || seg.Kind == engine.SegRound) {
		s.tamper(&req, res)
	}
	return res, err
}

// TestCoordinatedUntrustedAnswer pins that a shard answering a sampling
// segment with state the walk cannot use is lost like a failed call:
// the run completes degraded, Partial, with that shard named, instead of
// panicking on a short flag slice or re-issuing a segment that never
// advances until the context deadline.
func TestCoordinatedUntrustedAnswer(t *testing.T) {
	cases := []struct {
		name   string
		tamper func(*engine.ShardSegment, *engine.ShardSegmentResult)
	}{
		{"short exhaustion flags", func(_ *engine.ShardSegment, r *engine.ShardSegmentResult) {
			r.LocalExhausted = r.LocalExhausted[:1]
		}},
		{"long consumed bitmap", func(_ *engine.ShardSegment, r *engine.ShardSegmentResult) {
			r.Consumed = append(r.Consumed, 0)
		}},
		{"cursor past the shard", func(_ *engine.ShardSegment, r *engine.ShardSegmentResult) {
			r.Cursor = 1 << 20
		}},
		{"no progress", func(req *engine.ShardSegment, r *engine.ShardSegmentResult) {
			// The request's own state back, nothing drawn.
			n := len(r.LocalExhausted)
			r.Batch = core.EncodeBatch(&core.Batch{Counts: make([]int64, n), Hists: make([]*histogram.Histogram, n)})
			r.IO, r.Visited, r.Cursor, r.Stopped = engine.IOStats{}, 0, req.Cursor, ""
			r.ConsumedCount, r.Deficits = req.ConsumedCount, req.Deficits
			if req.Consumed != nil {
				r.Consumed = req.Consumed
			} else {
				r.Consumed = make([]uint64, len(r.Consumed))
			}
		}},
	}
	_, parts := clusterDataset(t, 40_000, 3)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			shards := shardSet(t, parts)
			shards[1] = tamperShard{planShard: shards[1].(*planShard), tamper: c.tamper}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			cres, err := New(shards...).Run(ctx, engine.Target{Uniform: true}, clusterOptions(engine.ScanMatch))
			if err != nil {
				t.Fatalf("an untrusted answer must degrade the run, not fail it: %v", err)
			}
			if !cres.Degraded || len(cres.Missing) != 1 || cres.Missing[0] != "s1" {
				t.Fatalf("degraded=%v missing=%v, want s1 lost", cres.Degraded, cres.Missing)
			}
			if !cres.Result.Partial || cres.Result.Exact {
				t.Fatalf("partial=%v exact=%v, want a partial answer", cres.Result.Partial, cres.Result.Exact)
			}
			if st := cres.Shards[1]; st.Healthy || st.Error == "" {
				t.Fatalf("shard status %+v, want unhealthy with an error", st)
			}
		})
	}
}
