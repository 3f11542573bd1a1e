package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"fastmatch"
	"fastmatch/internal/datagen"
	"fastmatch/internal/expt"
)

// The two in-process workloads share one shape: one closed-loop client
// that runs Table 3 queries through Plan.RunContext, once with the
// default FastMatch executor and a fresh seed and once with Scan, and
// after each such pair probes a small companion serving stack (see
// companionProbes), so that every end-to-end metric exists on every
// workload. The probes run between engine runs, never beside them, so
// they neither slow the engine runs nor queue behind them.

// engineQuery is one prepared query of the closed-loop client.
type engineQuery struct {
	id     string
	plan   *fastmatch.Plan
	target fastmatch.Target
	opts   fastmatch.Options
	truth  *truth
	rows   int
}

type engineAnswer struct {
	q      int
	exact  bool
	labels []string
	dists  []float64
}

// engineWorkload holds the prepared queries, the companion stack and
// the answers awaiting grading.
type engineWorkload struct {
	queries []engineQuery
	comp    *servePart
	facts   map[string]float64
	rows    map[string]int
	closers []func()

	mu      sync.Mutex
	answers []engineAnswer
	// lastStream and lastSeed carry the companion's stream answer and
	// its seed to the cluster probe that follows it.
	lastStream []byte
	lastSeed   int64
	// ws is table3-inmem's expt workspace, kept for selfCheck.
	ws *expt.Workspace
}

// Companion probes, sent in this order after every pairsPerCycle
// FastMatch and Scan pairs. The cluster and append kinds each mix light requests with one
// heavy request in five (cluster) or eight (append), so that each p95
// falls among the heavy requests. A p95 over uniform sub-10 ms probes
// sits on the virtual machine's scheduling hiccups instead: it spread by
// 27–53% over five to ten runs, against 5–20% for the probes' medians.
const (
	probeStream      = iota // flights-q1 on /v1/query/stream (first_frame)
	probeCluster            // the same seeded request on flights_3shard
	probeClusterScan        // a cold Scan request on flights_3shard
	probeCacheHit           // a repeat request from the result cache
	probeAppend             // an append batch of smallBatch rows
	probeBigAppend          // an append batch of bigBatch rows
)

var companionProbes = []int{
	probeStream, probeStream, probeCluster,
	probeClusterScan, probeClusterScan, probeClusterScan, probeClusterScan,
	probeCacheHit,
	probeAppend, probeAppend, probeAppend, probeAppend, probeAppend, probeAppend, probeAppend,
	probeBigAppend,
}

const (
	// companionRows sizes the companion flights table.
	companionRows = 50_000
	smallBatch    = 20
	bigBatch      = 500
)

// pairsPerCycle is how many FastMatch and Scan pairs, each on the next
// query, precede each round of companion probes. With a round after
// every pair, the probes took 45% of flights-large-mmap's time.
const pairsPerCycle = 2

// engineSteps is the closed-loop cycle: pairsPerCycle FastMatch and Scan
// pairs, then the companion probes.
var engineSteps = 2*pairsPerCycle + len(companionProbes)

// startCompanion generates the companion flights table and serves it.
func (w *engineWorkload) startCompanion(dir string) error {
	ds, err := datagen.ByName("flights", companionRows, dataSeed+17, 32)
	if err != nil {
		return err
	}
	st, err := newServeStack(ds.Table, filepath.Join(dir, "companion"), companionRows/10)
	if err != nil {
		return err
	}
	w.comp = &servePart{serveStack: st, wrap: true}
	w.closers = append(w.closers, st.close)
	// A Scan answer does not depend on the request seed, so one
	// single-node answer is the reference for every cluster Scan probe;
	// two seeds must give the same bytes.
	var refs [2][]byte
	for i := range refs {
		rep, _, err := st.query(context.Background(), st.main.url, st.scanRequest(tableStatic, streamTemplate, int64(-1-i), false))
		if err != nil {
			return fmt.Errorf("companion reference scan: %w", err)
		}
		refs[i] = rep.Result
	}
	if !bytes.Equal(refs[0], refs[1]) {
		return errors.New("companion Scan answers differ between seeds")
	}
	w.comp.scanRef = refs[0]
	return nil
}

// warmUp runs every query with both executors, twice, and the companion
// probes, untimed, so the timed phase starts with caches filled.
func (w *engineWorkload) warmUp(seed int64) error {
	ph := &phase{log: newOpLog(), seedBase: -seed - 1}
	for i := 0; i < engineSteps*len(w.queries); i++ {
		w.mainOp(i, ph)
	}
	w.grade(ph)
	if ph.log.failed > 0 {
		return fmt.Errorf("warm-up failed: %v", ph.log.problems)
	}
	return nil
}

func (w *engineWorkload) mainOp(i int, ph *phase) int {
	cycle, step := i/engineSteps, i%engineSteps
	if step < 2*pairsPerCycle {
		q := (cycle*pairsPerCycle + step/2) % len(w.queries)
		return w.engineRun(q, step%2 == 1, ph.opSeed(0, i), ph)
	}
	return w.probe(companionProbes[step-2*pairsPerCycle], i, cycle, ph)
}

// engineRun runs query qi with FastMatch (or Scan when exact).
func (w *engineWorkload) engineRun(qi int, exact bool, seed int64, ph *phase) int {
	q := &w.queries[qi]
	opts := q.opts
	opts.Seed = seed
	kind, name := kindSample, spanRunSample
	if exact {
		opts.Executor = fastmatch.Scan
		kind, name = kindExact, spanRunExact
	}
	var tr *fastmatch.Trace
	if ph.rec != nil {
		tr = fastmatch.NewTrace(q.id)
		opts.Trace = tr
	}
	start := time.Now()
	res, err := q.plan.RunContext(context.Background(), q.target, opts)
	end := time.Now()
	if ph.rec != nil {
		op := ph.rec.newOp()
		id := ph.rec.add(op, 0, name, "bench", start, end)
		tr.End()
		snap := tr.Snapshot()
		ph.rec.attach(op, id, "engine", &snap)
		if err == nil {
			ph.layer.addRun(op, resultFacts(exact, q.rows, res))
		}
	}
	if err == nil && res.Partial {
		err = errPartial
	}
	if err != nil {
		ph.log.fail(kind, fmt.Errorf("%s: %w", q.id, err))
		return 0
	}
	ph.log.ok(kind, end.Sub(start))
	a := engineAnswer{q: qi, exact: exact}
	for _, m := range res.TopK {
		a.labels = append(a.labels, m.Label)
		a.dists = append(a.dists, m.Distance)
	}
	w.mu.Lock()
	w.answers = append(w.answers, a)
	w.mu.Unlock()
	return 1
}

// probe sends companion probe kind as step i of cycle and returns how
// many queries it completed (appends are not queries).
func (w *engineWorkload) probe(kind, i, cycle int, ph *phase) int {
	seed := ph.opSeed(1, i)
	start := time.Now()
	var err error
	switch kind {
	case probeStream:
		w.lastSeed = seed
		w.lastStream, err = w.comp.stream(ph, false, streamTemplate, seed, start)
	case probeCluster:
		if w.lastStream == nil {
			return 0 // this cycle's single-node answer failed
		}
		err = w.comp.cluster(ph, false, streamTemplate, w.lastSeed, w.lastStream, start)
	case probeClusterScan:
		err = w.comp.clusterScan(ph, seed, start)
	case probeCacheHit:
		err = w.comp.cacheHit(ph, false, cycle, start)
	case probeAppend, probeBigAppend:
		n := smallBatch
		if kind == probeBigAppend {
			n = bigBatch
		}
		w.comp.appendNext(ph, start, n)
		return 0
	}
	if err != nil {
		return 0
	}
	return 1
}

func (w *engineWorkload) openInterval() time.Duration { return 0 }

func (w *engineWorkload) openOp(int, time.Time, *phase) {}

func (w *engineWorkload) required() []string {
	return []string{kindSample, kindExact, kindCacheHit, kindFirstFrame, kindCluster, kindAppend}
}

// grade checks exact answers against brute force and grades sampling
// answers, then the companion's answers.
func (w *engineWorkload) grade(ph *phase) {
	w.mu.Lock()
	answers := w.answers
	w.answers = nil
	w.mu.Unlock()
	for _, a := range answers {
		q := w.queries[a.q]
		if a.exact {
			if err := q.truth.checkExact(a.labels, a.dists); err != nil {
				ph.log.mismatch(kindExact, fmt.Errorf("%s: %w", q.id, err))
			}
			continue
		}
		ph.log.graded(q.truth.grade(a.labels))
	}
	w.comp.grade(ph)
}

func (w *engineWorkload) setupFacts() map[string]float64 { return w.facts }

func (w *engineWorkload) statsSnapshot() *serverStats { return w.comp.statsSnapshot() }

func (w *engineWorkload) describe(p *provenance) {
	for k, v := range w.rows {
		p.Rows[k] = v
	}
	p.Rows["companion "+tableStatic] = w.comp.tbl.NumRows()
	p.Rows["companion "+tableLive+" (base)"] = w.comp.liveBase
	p.Rows["companion append batch (7 in 8)"] = smallBatch
	p.Rows["companion append batch (1 in 8)"] = bigBatch
	p.FlushPolicy = flushPolicy
}

func (w *engineWorkload) close() {
	for i := len(w.closers) - 1; i >= 0; i-- {
		w.closers[i]()
	}
}

// newTable3 sets up table3-inmem: the expt workspace's three 1M-row
// datasets in memory and the nine Table 3 queries with the harness's
// parameters, each on a cold engine of its own.
func newTable3(seed int64, dir string) (_ instance, err error) {
	w := &engineWorkload{facts: map[string]float64{}, rows: map[string]int{}}
	defer func() {
		if err != nil {
			w.close()
		}
	}()
	cfg := expt.Config{Rows: 1_000_000, Seed: dataSeed}.WithDefaults()
	t := time.Now()
	ws, err := expt.NewWorkspace(cfg)
	if err != nil {
		return nil, err
	}
	w.facts["generate_s"] = time.Since(t).Seconds()
	engines := map[string]*fastmatch.Engine{}
	var indexNS, prepareNS time.Duration
	for _, spec := range expt.Queries {
		tbl, err := ws.Table(spec.Dataset)
		if err != nil {
			return nil, err
		}
		w.rows[spec.Dataset] = tbl.NumRows()
		eng := engines[spec.Dataset]
		if eng == nil {
			eng = fastmatch.NewEngine(tbl)
			engines[spec.Dataset] = eng
		}
		t := time.Now()
		if _, err := eng.Index(spec.Z); err != nil {
			return nil, err
		}
		indexNS += time.Since(t)
		t = time.Now()
		plan, err := eng.Prepare(fastmatch.Query{Z: spec.Z, X: []string{spec.X}})
		if err != nil {
			return nil, err
		}
		prepareNS += time.Since(t)
		target, err := ws.Target(spec.ID)
		if err != nil {
			return nil, err
		}
		params := exptParams(cfg, spec.K, target.Groups(), tbl.NumRows())
		tr, err := workspaceTruth(ws, spec, params)
		if err != nil {
			return nil, err
		}
		w.queries = append(w.queries, engineQuery{
			id: spec.ID, plan: plan, truth: tr, rows: tbl.NumRows(),
			target: fastmatch.Target{Counts: target.Counts()},
			opts: fastmatch.Options{Params: params, Executor: fastmatch.FastMatch,
				Lookahead: cfg.Lookahead, StartBlock: -1},
		})
	}
	w.facts["index_build_ms"] = float64(indexNS.Nanoseconds()) / 1e6
	w.facts["prepare_ms"] = float64(prepareNS.Nanoseconds()) / 1e6
	w.ws = ws
	if err := w.startCompanion(dir); err != nil {
		return nil, err
	}
	if err := w.warmUp(seed); err != nil {
		return nil, err
	}
	return w, nil
}

// workspaceTruth reads a query's brute-force ranking from the expt
// workspace, which counts every candidate's exact histogram at set-up.
func workspaceTruth(ws *expt.Workspace, spec expt.QuerySpec, params fastmatch.Params) (*truth, error) {
	ranked, dist, err := ws.ExactTopK(spec.ID, fastmatch.MetricL1, params.Sigma)
	if err != nil {
		return nil, err
	}
	t := &truth{k: spec.K, epsilon: params.Epsilon, dist: map[string]float64{}, topk: ranked}
	for id, d := range dist {
		l, err := ws.Label(spec.ID, id)
		if err != nil {
			return nil, err
		}
		t.labels = append(t.labels, l)
		t.dist[l] = d
	}
	return t, nil
}

// selfCheck runs every Table 3 query once through the expt harness and
// once through the benchmark's own options, seeded alike with the
// deterministic ScanMatch executor: answers, I/O and HistSim statistics
// must agree, or exptParams no longer mirrors the harness. It then drops
// the workspace. flights-large-mmap has no harness run to compare with.
func (w *engineWorkload) selfCheck() error {
	if w.ws == nil {
		return nil
	}
	defer func() { w.ws = nil }()
	const seed = 5
	for _, q := range w.queries {
		want, err := w.ws.Run(q.id, fastmatch.ScanMatch, expt.RunOverrides{Seed: seed})
		if err != nil {
			return err
		}
		opts := q.opts
		opts.Executor, opts.Seed = fastmatch.ScanMatch, seed
		got, err := q.plan.RunContext(context.Background(), q.target, opts)
		if err != nil {
			return err
		}
		gs, ws := got.Stats, want.Stats
		if len(got.TopK) != len(want.TopK) || got.IO != want.IO ||
			gs.SamplesStage1 != ws.SamplesStage1 || gs.SamplesStage2 != ws.SamplesStage2 ||
			gs.SamplesStage3 != ws.SamplesStage3 || gs.Rounds != ws.Rounds || gs.PrunedCandidates != ws.PrunedCandidates {
			return fmt.Errorf("%s: benchmark parameters diverge from the expt harness (io %+v vs %+v, rounds %d vs %d, stage-2 samples %d vs %d)",
				q.id, got.IO, want.IO, gs.Rounds, ws.Rounds, gs.SamplesStage2, ws.SamplesStage2)
		}
		for i := range got.TopK {
			if got.TopK[i].ID != want.TopK[i].ID || got.TopK[i].Distance != want.TopK[i].Distance {
				return fmt.Errorf("%s: benchmark parameters diverge from the expt harness at rank %d", q.id, i)
			}
		}
	}
	return nil
}

// largeRows is the flights-large-mmap table size.
const largeRows = 16_000_000

// largeTemplates are the queries of flights-large-mmap: flights-q1 alone.
// At 16M rows its FastMatch run reads a minority of the tuples, the
// regime this workload exists for. With q2–q4 in the rotation the median
// sampling run took about 100 ms and a cycle about 330 ms, so a run could
// not gather 200 samples of each op kind in a minute.
func largeTemplates() []expt.QuerySpec { return flightsTemplates()[:1] }

// newLargeMmap sets up flights-large-mmap: a 16M-row flights table
// written as a snapshot and served through OpenMmap, queried with
// flights-q1 and its candidate target.
func newLargeMmap(seed int64, dir string) (_ instance, err error) {
	w := &engineWorkload{facts: map[string]float64{}, rows: map[string]int{"flights (mmap)": largeRows}}
	defer func() {
		if err != nil {
			w.close()
		}
	}()
	cfg := expt.Config{Rows: largeRows, Seed: dataSeed}.WithDefaults()
	t := time.Now()
	ds, err := datagen.ByName("flights", largeRows, dataSeed, cfg.BlockSize)
	if err != nil {
		return nil, err
	}
	w.facts["generate_s"] = time.Since(t).Seconds()
	type prepared struct {
		spec   expt.QuerySpec
		target flightsTarget
		truth  *truth
		params fastmatch.Params
	}
	var qs []prepared
	for _, spec := range largeTemplates() {
		hists, labels, err := histsAndLabels(ds.Table, spec.Z, spec.X, largeRows)
		if err != nil {
			return nil, err
		}
		counts, ft, err := pickTarget(spec, hists, labels, cfg.Sigma, largeRows)
		if err != nil {
			return nil, err
		}
		params := exptParams(cfg, spec.K, len(counts), largeRows)
		qs = append(qs, prepared{spec, ft, newTruth(hists, labels, counts, spec.K, params.Sigma, params.Epsilon, largeRows), params})
	}
	path := filepath.Join(dir, "flights.snap")
	t = time.Now()
	if err := fastmatch.WriteSnapshot(ds.Table, path); err != nil {
		return nil, err
	}
	w.facts["snapshot_write_s"] = time.Since(t).Seconds()
	ds = nil
	freeMemory()
	t = time.Now()
	mt, err := fastmatch.OpenMmap(path)
	if err != nil {
		return nil, err
	}
	w.facts["mmap_open_s"] = time.Since(t).Seconds()
	w.closers = append(w.closers, func() { _ = mt.Close() }) // read-only mapping
	plans, err := timeIndexAndPrepare(fastmatch.NewEngine(mt), largeTemplates(), w.facts)
	if err != nil {
		return nil, err
	}
	// Candidate targets are resolved once here, not in every run: at 16M
	// rows resolving the top candidate's histogram costs more than the
	// sampling run itself, and a run must fit 200 runs of each executor.
	var resolve time.Duration
	for i, q := range qs {
		t := time.Now()
		target, err := plans[i].ResolveTarget(q.target.engineTarget(), 0)
		if err != nil {
			return nil, err
		}
		resolve += time.Since(t)
		w.queries = append(w.queries, engineQuery{
			id: q.spec.ID, plan: plans[i], truth: q.truth, rows: largeRows,
			target: fastmatch.Target{Counts: target.Counts()},
			opts: fastmatch.Options{Params: q.params, Executor: fastmatch.FastMatch,
				Lookahead: cfg.Lookahead, StartBlock: -1},
		})
	}
	w.facts["resolve_target_ms"] = float64(resolve.Nanoseconds()) / 1e6 / float64(len(qs))
	if err := w.startCompanion(dir); err != nil {
		return nil, err
	}
	if err := w.warmUp(seed); err != nil {
		return nil, err
	}
	return w, nil
}
