package main

import (
	"strings"
	"sync"
	"time"

	"fastmatch"
	"fastmatch/internal/engine"
	"fastmatch/internal/server"
)

// runFacts is what one engine run of the closed-loop client reported,
// read from Result (in process) or from the result payload and the
// server's span tree (over HTTP).
type runFacts struct {
	exact    bool
	rows     int
	io       engine.IOStats
	rounds   int
	samples2 int64
	runNS    int64
	// sampler is nil over HTTP, which does not return it.
	sampler *engine.SamplerStats
}

// layerAgg collects the traced phase's per-run facts, the op ids of the
// closed-loop client, and the server-side time of result-cache hits.
type layerAgg struct {
	mu      sync.Mutex
	runs    []runFacts
	mainOps map[int64]bool
	cacheNS []float64
}

func newLayerAgg() *layerAgg { return &layerAgg{mainOps: map[int64]bool{}} }

// addRun records a closed-loop run; nil-safe for untraced phases.
func (a *layerAgg) addRun(op int64, f runFacts) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.runs = append(a.runs, f)
	a.mainOps[op] = true
}

// addMainOp marks op as one of the closed-loop client's.
func (a *layerAgg) addMainOp(op int64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.mainOps[op] = true
}

// addCacheHit records a result-cache hit's server-side duration.
func (a *layerAgg) addCacheHit(ns int64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.cacheNS = append(a.cacheNS, float64(ns))
}

// httpFacts builds runFacts from a /v1/query reply.
func httpFacts(exact bool, rows int, pl server.ResultPayload, snap *fastmatch.TraceSnapshot) runFacts {
	f := runFacts{exact: exact, rows: rows, io: pl.IO, rounds: pl.Stats.Rounds, samples2: pl.Stats.SamplesStage2}
	if snap != nil {
		if sp := snap.Find("run"); sp != nil {
			f.runNS = sp.DurationNS
		}
	}
	return f
}

// resultFacts builds runFacts from an in-process Result.
func resultFacts(exact bool, rows int, res *fastmatch.Result) runFacts {
	return runFacts{exact: exact, rows: rows, io: res.IO, rounds: res.Stats.Rounds,
		samples2: res.Stats.SamplesStage2, runNS: res.Duration.Nanoseconds(), sampler: res.Sampler}
}

// serverStats is a snapshot of the serving stack's /v1/stats.
type serverStats struct {
	main, coord server.StatsResponse
}

// Bench span names: one per HTTP call kind, and one per in-process run.
const (
	spanHTTPSample   = "http.sample"
	spanHTTPExact    = "http.exact"
	spanHTTPStream   = "http.stream"
	spanHTTPCluster  = "http.cluster"
	spanHTTPLive     = "http.live"
	spanHTTPCacheHit = "http.cache_hit"
	spanHTTPAppend   = "http.append"
	spanRunSample    = "engine.run_sample"
	spanRunExact     = "engine.run_exact"
)

// spanIndex answers the per-layer questions over a recorded span list.
type spanIndex struct {
	spans []span
	self  map[int64]int64
	kids  map[int64][]span
}

func newSpanIndex(spans []span) *spanIndex {
	ix := &spanIndex{spans: spans, self: selfTimes(spans), kids: map[int64][]span{}}
	for _, s := range spans {
		if s.Parent != 0 {
			ix.kids[s.Parent] = append(ix.kids[s.Parent], s)
		}
	}
	return ix
}

// childMS returns, per parent span named in parents, the total
// duration of its direct children named child, in milliseconds.
func (ix *spanIndex) childMS(parents map[string]bool, child string) []float64 {
	var out []float64
	for _, p := range ix.spans {
		if p.Source != "bench" || !parents[p.Name] {
			continue
		}
		var ns int64
		found := false
		for _, c := range ix.kids[p.ID] {
			if c.Name == child {
				ns += c.End - c.Start
				found = true
			}
		}
		if found {
			out = append(out, float64(ns)/1e6)
		}
	}
	return out
}

// perOpMS sums, per op in ops, the self time of spans whose name
// matches, in milliseconds; ops without such spans are left out.
func (ix *spanIndex) perOpMS(ops map[int64]bool, match func(string) bool) []float64 {
	sum := map[int64]int64{}
	for _, s := range ix.spans {
		if ops[s.Op] && s.Source != "bench" && match(s.Name) {
			sum[s.Op] += ix.self[s.ID]
		}
	}
	out := make([]float64, 0, len(sum))
	for _, ns := range sum {
		out = append(out, float64(ns)/1e6)
	}
	return out
}

// selfMS returns the self time of every bench span named in names, in
// milliseconds: for an HTTP call, the round trip the server's span tree
// does not account for.
func (ix *spanIndex) selfMS(names map[string]bool) []float64 {
	var out []float64
	for _, s := range ix.spans {
		if s.Source == "bench" && names[s.Name] {
			out = append(out, float64(ix.self[s.ID])/1e6)
		}
	}
	return out
}

func set(names ...string) map[string]bool {
	m := map[string]bool{}
	for _, n := range names {
		m[n] = true
	}
	return m
}

// med is the median of xs, or 0 when a layer saw no such event.
func med(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics computes every per-layer metric from the traced phase.
// A metric whose layer the workload does not exercise reads 0.
func layerMetrics(pr *phaseResult, facts map[string][]float64) map[string]metric {
	ph := pr.ph
	ix := newSpanIndex(ph.rec.snapshot())
	agg := ph.layer
	out := runtimeMetrics(pr.rt0, pr.rt1, ph.log.attempted)
	put := func(name, unit string, v float64) { out[name] = metric{v, unit} }

	put("colstore.generate_s", "s", med(facts["generate_s"]))
	put("colstore.snapshot_write_s", "s", med(facts["snapshot_write_s"]))
	put("colstore.mmap_open_s", "s", med(facts["mmap_open_s"]))
	put("bitmap.index_build_ms", "ms", med(facts["index_build_ms"]))
	put("engine.prepare_ms", "ms", med(facts["prepare_ms"]))

	// Engine and core: the closed-loop client's runs.
	var nSample, readFrac, wraps, rounds, s2, imb, chunks float64
	var sampleNS, sampleTuples, exactNS, exactTuples, skipped, considered, kernel, read float64
	var nSampler float64
	for _, f := range agg.runs {
		kernel += float64(f.io.KernelBlocks)
		read += float64(f.io.BlocksRead)
		if f.exact {
			exactNS += float64(f.runNS)
			exactTuples += float64(f.io.TuplesRead)
			continue
		}
		nSample++
		readFrac += ratio(float64(f.io.TuplesRead), float64(f.rows))
		wraps += float64(f.io.Wraps)
		rounds += float64(f.rounds)
		s2 += float64(f.samples2)
		sampleNS += float64(f.runNS)
		sampleTuples += float64(f.io.TuplesRead)
		skipped += float64(f.io.BlocksSkipped)
		considered += float64(f.io.BlocksRead + f.io.BlocksSkipped)
		if f.sampler != nil && len(f.sampler.WorkerBlocks) > 0 {
			nSampler++
			chunks += float64(f.sampler.Chunks)
			imb += imbalance(f.sampler.WorkerBlocks)
		}
	}
	if nSampler == 0 && pr.stats0 != nil && pr.stats1 != nil {
		// Over HTTP the sampler stats arrive aggregated in /v1/stats.
		a, b := pr.stats0.main.Tables[tableStatic], pr.stats1.main.Tables[tableStatic]
		if runs := float64(b.SamplerRuns - a.SamplerRuns); runs > 0 {
			chunks = float64(b.SamplerChunks-a.SamplerChunks) / runs
			imb = imbalance(deltas(a.SamplerWorkerBlocks, b.SamplerWorkerBlocks))
		}
	} else if nSampler > 0 {
		chunks /= nSampler
		imb /= nSampler
	}
	put("engine.read_fraction", "ratio", ratio(readFrac, nSample))
	put("engine.skip_ratio", "ratio", ratio(skipped, considered))
	put("engine.wraps_per_query", "count", ratio(wraps, nSample))
	put("engine.sample_ns_per_tuple", "ns", ratio(sampleNS, sampleTuples))
	put("engine.exact_ns_per_tuple", "ns", ratio(exactNS, exactTuples))
	put("engine.kernel_block_ratio", "ratio", ratio(kernel, read))
	put("engine.worker_imbalance", "ratio", imb)
	put("engine.chunks_per_query", "count", chunks)
	put("core.rounds_per_query", "count", ratio(rounds, nSample))
	put("core.samples_stage2_per_query", "count", ratio(s2, nSample))
	put("core.guarantee_violations", "count", float64(ph.log.violations))

	mainOps := agg.mainOps
	resolve := med(facts["resolve_target_ms"]) // resolved at set-up
	if resolve == 0 {
		resolve = med(ix.perOpMS(mainOps, func(n string) bool { return n == "resolve_target" }))
	}
	put("engine.resolve_target_ms", "ms", resolve)
	put("core.stage1_ms", "ms", med(ix.perOpMS(mainOps, func(n string) bool { return n == "stage1" })))
	put("core.stage2_ms", "ms", med(ix.perOpMS(mainOps, func(n string) bool { return strings.HasPrefix(n, "stage2.") })))
	put("core.stage3_ms", "ms", med(ix.perOpMS(mainOps, func(n string) bool { return n == "stage3" })))

	// Server: requests to the main server that ran the engine.
	queries := set(spanHTTPSample, spanHTTPExact, spanHTTPStream, spanHTTPLive)
	put("server.decode_ms", "ms", med(ix.childMS(queries, "decode")))
	put("server.admission_wait_ms", "ms", med(ix.childMS(queries, "admission")))
	put("server.plan_cache_ms", "ms", med(ix.childMS(queries, "plan_cache")))
	put("server.run_ms", "ms", med(ix.childMS(queries, "run")))
	put("server.unaccounted_ms", "ms", med(ix.selfMS(queries)))
	put("server.result_cache_ms", "ms", med(agg.cacheNS)/1e6)
	put("cluster.shard_meta_ms", "ms", med(ix.childMS(set(spanHTTPCluster), "shard_meta")))

	var hitRatio, planRatio, rejected, retries, shardErrs, rpcNS, rpcs float64
	var seals, compactions, compactErrs, segments, walPerRow float64
	if a, b := pr.stats0, pr.stats1; a != nil && b != nil {
		rc, pc := b.main.ResultCache, b.main.PlanCache
		hitRatio = ratio(float64(rc.Hits-a.main.ResultCache.Hits), float64(rc.Hits+rc.Misses-a.main.ResultCache.Hits-a.main.ResultCache.Misses))
		planRatio = ratio(float64(pc.Hits-a.main.PlanCache.Hits), float64(pc.Hits+pc.Misses-a.main.PlanCache.Hits-a.main.PlanCache.Misses))
		rejected = float64(b.main.Admission.Rejected - a.main.Admission.Rejected + b.coord.Admission.Rejected - a.coord.Admission.Rejected)
		sa, sb := a.coord.Tables[tableCluster].Shards, b.coord.Tables[tableCluster].Shards
		for i := range sb {
			if i < len(sa) {
				retries += float64(sb[i].Retries - sa[i].Retries)
				shardErrs += float64(sb[i].Errors - sa[i].Errors)
				rpcNS += float64(sb[i].LatencySumNS - sa[i].LatencySumNS)
				rpcs += float64(sb[i].LatencyCount - sa[i].LatencyCount)
			}
		}
		if ia, ib := a.main.Tables[tableLive].Ingest, b.main.Tables[tableLive].Ingest; ia != nil && ib != nil {
			seals = float64(ib.Seals - ia.Seals)
			compactions = float64(ib.Compactions - ia.Compactions)
			compactErrs = float64(ib.CompactErrors - ia.CompactErrors)
			segments = float64(ib.Segments)
			walPerRow = ratio(float64(ib.WALBytes), float64(ib.Rows-ib.PersistedRows))
		}
	}
	put("server.result_cache_hit_ratio", "ratio", hitRatio)
	put("server.plan_cache_hit_ratio", "ratio", planRatio)
	put("server.rejected", "count", rejected)
	put("cluster.shard_rpc_ms", "ms", ratio(rpcNS, rpcs)/1e6)
	put("cluster.shard_retries", "count", retries)
	put("cluster.shard_errors", "count", shardErrs)
	put("ingest.seals", "count", seals)
	put("ingest.compactions", "count", compactions)
	put("ingest.compact_errors", "count", compactErrs)
	put("ingest.segments", "count", segments)
	put("ingest.wal_bytes_per_row", "B", walPerRow)

	var late float64
	if len(pr.lateness) > 0 {
		xs := make([]float64, len(pr.lateness))
		for i, d := range pr.lateness {
			xs[i] = float64(d) / float64(time.Millisecond)
		}
		late = sortedCopy(xs)[nearestRank(0.95, len(xs))-1]
	}
	put("bench.append_lateness_ms", "ms", late)
	return out
}

// imbalance is max/mean of per-worker block counts (1 is even).
func imbalance(blocks []int64) float64 {
	var sum, mx float64
	for _, b := range blocks {
		sum += float64(b)
		mx = max(mx, float64(b))
	}
	if sum == 0 {
		return 0
	}
	return mx / (sum / float64(len(blocks)))
}

// deltas returns b − a elementwise (a may be shorter).
func deltas(a, b []int64) []int64 {
	out := make([]int64, len(b))
	for i := range b {
		out[i] = b[i]
		if i < len(a) {
			out[i] -= a[i]
		}
	}
	return out
}
