// Package fastmatch is an end-to-end system for interactively retrieving
// the top-k histogram visualizations most similar to a target, from a
// large collection of candidate histograms, with probabilistic separation
// and reconstruction guarantees.
//
// It reproduces "Adaptive Sampling for Rapidly Matching Histograms"
// (Macke, Zhang, Huang, Parameswaran; VLDB 2018): the HistSim algorithm
// (three-stage adaptive sampling with Holm–Bonferroni rarity pruning and
// union-intersection termination testing) running inside the FastMatch
// architecture (block-granular I/O over a shuffled column store, bitmap
// indexes, AnyActive block selection, and asynchronous lookahead marking).
//
// # Quick start
//
//	tbl := ...                    // build a *fastmatch.Table (see Builder)
//	eng := fastmatch.NewEngine(tbl)
//	res, err := eng.Run(
//	    fastmatch.Query{Z: "country", X: []string{"income_bracket"}},
//	    fastmatch.Target{Candidate: "Greece"},
//	    fastmatch.DefaultOptions(tbl.NumRows()),
//	)
//
// The result's TopK lists the k closest candidates with reconstructed
// histograms satisfying, with probability > 1−δ: every returned histogram
// is within ε (normalized L1) of its true histogram, and no omitted
// candidate with selectivity ≥ σ is more than ε closer to the target than
// the furthest returned one.
//
// # Progressive, cancellable queries
//
// HistSim refines its answer in rounds, so useful interim answers exist
// long before termination. The context-aware entry points expose that:
//
//	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
//	defer cancel()
//	opts := fastmatch.DefaultOptions(tbl.NumRows())
//	opts.OnProgress = func(p fastmatch.Progress) {
//	    fmt.Printf("%s round %d: best=%v\n", p.Phase, p.Round, p.TopK)
//	}
//	res, err := eng.RunContext(ctx, q, target, opts)
//
// Every executor checks the context at block granularity and unwinds
// cleanly. A run cut short — context canceled, deadline passed,
// Options.Deadline reached, or Options.RowBudget exhausted — returns a
// best-effort partial Result (Result.Partial set, candidates ranked by
// the estimates at the stop point, no guarantees attached) together with
// a typed error: ErrCanceled or ErrBudgetExhausted. OnProgress receives
// interim state after every HistSim round: the current top-k with
// distance estimates, rows and blocks read, and I/O counters.
//
// The server exposes the same contract over HTTP: POST /v1/query/stream
// answers with NDJSON progress frames followed by a terminal result
// frame, per-table query timeouts answer 200 with the partial result,
// and a disconnected client cancels its scan (counted in /v1/stats).
package fastmatch

import (
	"context"
	"time"

	"fastmatch/internal/colstore"
	"fastmatch/internal/core"
	"fastmatch/internal/engine"
	"fastmatch/internal/histogram"
	"fastmatch/internal/ingest"
	"fastmatch/internal/obs/trace"
	"fastmatch/internal/server"
)

// Re-exported storage types: build tables with Builder, group continuous
// attributes with Binner. Reader is the pluggable-backend seam: every
// engine layer consumes it, so a query runs identically over the
// heap-resident Table, the zero-copy MmapTable, or any future backend.
type (
	// Reader is the backend-neutral block-granular storage interface the
	// engine runs on. Slices returned through it alias backend storage
	// and must be treated as read-only.
	Reader = colstore.Reader
	// ColumnReader is read access to one categorical column.
	ColumnReader = colstore.ColumnReader
	// MeasureReader is read access to one numeric measure column.
	MeasureReader = colstore.MeasureReader
	// Table is an immutable block-structured column store relation — the
	// in-memory Reader backend.
	Table = colstore.Table
	// MmapTable is the zero-copy mmap snapshot backend (linux/darwin;
	// heap fallback elsewhere and for v1 snapshots). Close it only after
	// the last query over it has finished.
	MmapTable = colstore.MmapTable
	// StorageStats describes a Reader's backend and residency.
	StorageStats = colstore.StorageStats
	// Builder accumulates rows into a Table; call Shuffle before Build so
	// sequential scans are uniform samples.
	Builder = colstore.Builder
	// Column is a dictionary-encoded categorical column.
	Column = colstore.Column
	// Binner maps continuous values to histogram bins.
	Binner = colstore.Binner
)

// Re-exported query/engine types.
type (
	// Engine answers matching queries over one Table. One shared Engine is
	// safe for concurrent use: its index and density caches are guarded by
	// singleflight locking, and per-run scan state lives in the run.
	Engine = engine.Engine
	// Plan is a prepared query — candidate and group mappers resolved
	// once, reusable (and safe to share) across runs; see Engine.Prepare.
	Plan = engine.Plan
	// Query is a histogram-generating query template: candidate attribute
	// Z, grouping attribute(s) X, plus optional extensions.
	Query = engine.Query
	// Target specifies the visual target (explicit counts, a candidate's
	// own histogram, or uniform).
	Target = engine.Target
	// Options bundles HistSim parameters with the executor choice.
	Options = engine.Options
	// Result is a complete query answer (or, when Result.Partial is set,
	// a best-effort answer from a run cut short).
	Result = engine.Result
	// Match is one returned candidate.
	Match = engine.Match
	// Progress is the interim state of a run in flight, delivered
	// through Options.OnProgress.
	Progress = engine.Progress
	// ProgressMatch is one candidate in a Progress ranking.
	ProgressMatch = engine.ProgressMatch
	// Executor selects the execution strategy.
	Executor = engine.Executor
	// Params are the HistSim knobs (k, ε, δ, σ, m, metric).
	Params = core.Params
	// Histogram is a vector of per-group counts.
	Histogram = histogram.Histogram
	// Metric is the distance function over normalized histograms.
	Metric = histogram.Metric
	// ExplainInfo is a Plan's static execution profile (resolved shapes,
	// zone-map prunable block counts, fast-path eligibility) — see
	// Plan.Explain.
	ExplainInfo = engine.ExplainInfo
	// Trace collects a per-query span tree when set on Options.Trace;
	// create with NewTrace and render with Trace.Snapshot.
	Trace = trace.Trace
	// TraceSnapshot is a trace's JSON-friendly rendering.
	TraceSnapshot = trace.Snapshot
	// TraceSpan is one span in a TraceSnapshot.
	TraceSpan = trace.SpanSnapshot
	// QualityReport is a completed sampling run's answer-quality
	// self-assessment — rounds, final margin, per-match confidence
	// intervals, termination cause — collected when Options.Quality is
	// set; see Result.Quality.
	QualityReport = engine.QualityReport
	// MatchQuality is one returned match's estimate quality (estimated
	// distance plus CI half-width) inside a QualityReport.
	MatchQuality = engine.MatchQuality
	// ProgressQuality is the per-round convergence telemetry carried on
	// Progress when Options.Quality is set.
	ProgressQuality = engine.ProgressQuality
	// Audit is AuditRun's ground-truth verdict: precision@k, rank
	// displacement, and per-candidate distance error for a completed
	// approximate answer.
	Audit = engine.Audit
	// AuditCandidate is one candidate's approximate-vs-exact comparison
	// inside an Audit.
	AuditCandidate = engine.AuditCandidate
)

// Executor variants, in increasing sophistication (§5.2 of the paper).
const (
	// Scan is the exact full-pass baseline, read by Options.Workers
	// goroutines (default GOMAXPROCS) with identical results at any count.
	Scan = engine.Scan
	// ScanMatch samples sequentially without block skipping.
	ScanMatch = engine.ScanMatch
	// SyncMatch adds per-block AnyActive selection, synchronously.
	SyncMatch = engine.SyncMatch
	// FastMatch adds asynchronous lookahead marking — the full system.
	FastMatch = engine.FastMatch
)

// Distance metrics.
const (
	// MetricL1 is normalized L1 distance, the paper's default.
	MetricL1 = histogram.MetricL1
	// MetricL2 is normalized L2 distance (Appendix A.2.2).
	MetricL2 = histogram.MetricL2
)

// Typed termination errors for runs cut short (test with errors.Is).
// Both accompany a best-effort partial Result — see the package doc's
// progressive-queries section.
var (
	// ErrCanceled marks a run stopped by its context or
	// Options.Deadline; the chain also wraps the context error
	// (context.Canceled vs context.DeadlineExceeded).
	ErrCanceled = engine.ErrCanceled
	// ErrBudgetExhausted marks a run stopped by Options.RowBudget.
	ErrBudgetExhausted = engine.ErrBudgetExhausted
)

// Re-exported serving types: run queries behind a long-lived HTTP daemon
// (cmd/fastmatchd) or embed a Server in your own process.
type (
	// Server is the query-serving subsystem: a multi-table registry with
	// one shared Engine per dataset, a JSON-over-HTTP API, LRU plan and
	// result caches, admission control, and per-table metrics.
	Server = server.Server
	// ServerConfig parameterizes a Server; the zero value is usable.
	ServerConfig = server.Config
	// TableSpec describes a dataset to load (CSV, binary snapshot, or a
	// live ingest directory).
	TableSpec = server.TableSpec
	// StreamFrame is one NDJSON line of a POST /v1/query/stream
	// response: progress frames, then one terminal result/error frame.
	StreamFrame = server.StreamFrame
)

// AuditRun grades a completed approximate answer against ground truth:
// it re-executes the prepared plan with the exact Scan executor over
// every candidate and reports strict precision@k, per-candidate rank
// displacement and distance error, and how many returned matches
// violate the (ε, δ) guarantee the sampling run claimed. Partial
// answers are refused — they claimed no guarantee, so there is nothing
// to indict. This is the primitive behind the server's shadow-audit
// sampler (ServerConfig.AuditFraction).
func AuditRun(ctx context.Context, p *Plan, target *Histogram, approx *Result, opts Options) (*Audit, error) {
	return engine.AuditRun(ctx, p, target, approx, opts)
}

// NewThrottledReader wraps a storage backend so every block read costs
// at least perBlock of wall-clock time — a storage-latency simulator for
// demonstrating and testing progressive delivery, timeouts, and
// cancellation without multi-gigabyte fixtures.
func NewThrottledReader(src Reader, perBlock time.Duration) Reader {
	return colstore.NewThrottledReader(src, perBlock)
}

// Re-exported live-ingestion types (internal/ingest): a WritableTable
// accepts appends — WAL-logged for durability, folded into immutable
// column segments with zone maps, background-compacted into mmap-able
// snapshot files — while serving queries through snapshot-isolated
// Reader views, so every engine layer works unmodified over live data.
type (
	// WritableTable is the live-ingestion storage backend. Open one with
	// OpenIngestTable, append with Append, query through View.
	WritableTable = ingest.WritableTable
	// IngestTableView is an immutable, snapshot-isolated Reader over a
	// WritableTable at one data generation; Release it when done.
	IngestTableView = ingest.TableView
	// IngestSchema declares a writable table's columns and measures.
	IngestSchema = ingest.Schema
	// IngestOptions tunes durability (WAL fsync), segment sealing, and
	// compaction; the zero value is production-safe.
	IngestOptions = ingest.Options
	// IngestRow is one appended tuple.
	IngestRow = ingest.Row
	// IngestAppendResult acknowledges a durable append batch.
	IngestAppendResult = ingest.AppendResult
	// IngestStats snapshots a writable table's ingest counters.
	IngestStats = ingest.Stats
)

// OpenIngestTable creates or re-opens a live-ingestion table rooted at
// dir, replaying its write-ahead log so exactly the acked rows come
// back. See IngestSchema/IngestOptions; pass an empty schema to adopt an
// existing directory's.
func OpenIngestTable(dir string, schema IngestSchema, opts IngestOptions) (*WritableTable, error) {
	return ingest.Open(dir, schema, opts)
}

// NewServer creates a query server; register tables with
// Server.LoadTable or Server.RegisterTable and expose Server.Handler.
func NewServer(cfg ServerConfig) *Server { return server.New(cfg) }

// NewTrace creates an empty query trace identified by id; set it on
// Options.Trace to collect a span tree (plan, run phases, per-span I/O
// deltas) for the run, then render it with Trace.Snapshot. Tracing is
// purely observational: results are byte-identical with or without it.
func NewTrace(id string) *Trace { return trace.New(id) }

// WriteSnapshot serializes a table as a versioned binary snapshot that
// loads without CSV re-parsing and preserves the block layout exactly
// (see internal/colstore for the format). Snapshots are written in
// format v3: 8-byte-aligned sections that OpenMmap can serve in place,
// plus a per-block statistics section (categorical presence bitsets and
// measure min/max) that powers zone-map block skipping without paging
// in the data arrays.
func WriteSnapshot(tbl *Table, path string) error { return colstore.WriteSnapshotFile(tbl, path) }

// ReadSnapshot loads a table snapshot (any supported format version)
// into memory, verifying its CRC.
func ReadSnapshot(path string) (*Table, error) { return colstore.ReadSnapshotFile(path) }

// OpenMmap opens a snapshot with the zero-copy mmap backend: a v2
// snapshot's column sections are served straight from read-only mapped
// pages (~instant cold start, tables larger than RAM). V1 snapshots and
// unsupported platforms transparently materialize in memory instead.
func OpenMmap(path string) (*MmapTable, error) { return colstore.OpenMmapFile(path) }

// NewEngine creates an engine over any storage backend (*Table,
// *MmapTable, or a custom Reader).
func NewEngine(src Reader) *Engine { return engine.New(src) }

// NewBuilder creates a table builder with the given tuples-per-block
// granularity (≤ 0 selects the default of 256).
func NewBuilder(blockSize int) *Builder { return colstore.NewBuilder(blockSize) }

// NewUniformBinner builds n equal-width bins over [lo, hi] for grouping a
// continuous attribute.
func NewUniformBinner(lo, hi float64, n int) (*Binner, error) {
	return colstore.NewUniformBinner(lo, hi, n)
}

// NewHistogram builds a histogram from explicit counts (e.g. a
// user-sketched target).
func NewHistogram(counts []float64) *Histogram { return histogram.FromCounts(counts) }

// MeasureBiasedView materializes the derived table that turns SUM(measure)
// queries into COUNT queries (Appendix A.1.1). The source may be any
// storage backend; the view is an in-memory Table.
func MeasureBiasedView(src Reader, measure string, targetRows int, seed int64) (*Table, error) {
	return engine.MeasureBiasedView(src, measure, targetRows, seed)
}

// DefaultOptions returns the paper's default configuration scaled to a
// dataset of totalRows tuples: k=10, ε=0.04, δ=0.01, σ=0.0008,
// lookahead=1024 blocks, FastMatch executor, and a stage-1 sample of
// max(rows/20, 2000) capped at the paper's m = 5·10⁵.
//
// Seed is left at zero, which is a fixed seed, not a random one: with the
// default StartBlock of -1 every run derives the same pseudo-random start
// block. Set Options.Seed per run (e.g. from wall-clock time) to
// reproduce the paper's independent-runs behavior.
func DefaultOptions(totalRows int) Options { return engine.DefaultOptions(totalRows) }
