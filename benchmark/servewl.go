package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"fastmatch"
	"fastmatch/internal/datagen"
	"fastmatch/internal/expt"
	"fastmatch/internal/server"
)

// servePart drives a serveStack: one method per op kind, each timing the
// HTTP call from outside, recording it in the phase's log, and keeping
// what the off-path grading needs.
type servePart struct {
	*serveStack
	// gradeSamples makes sampling answers count towards precision_at_k;
	// off for the companion stack of the in-process workloads, whose
	// table is not the workload's.
	gradeSamples bool
	// appended counts the rows appended past the live base; it runs on
	// across phases so flights_live always holds a prefix of the static
	// table's rows. batchRows is the size of every serve-mixed batch,
	// which live grading relies on.
	appended  int
	batchRows int
	// wrap restarts the append source at the live base once it runs
	// out, for a live table nobody queries.
	wrap bool
	// scanRef is the single-node answer of the cluster Scan probes.
	scanRef []byte

	mu       sync.Mutex
	samples  []servedAnswer
	exacts   []servedAnswer
	lives    []servedAnswer
	pairs    [][2][]byte // (single node, 3-shard) result bytes
	hotPairs [][2][]byte // (first answer, cache hit) result bytes
	// appendFailed stops live grading: after a lost batch the live table
	// is no longer a prefix of the static rows.
	appendFailed bool
}

type servedAnswer struct {
	tpl    int
	rows   int
	labels []string
	dists  []float64
}

// call runs one HTTP op. In a traced phase it allocates an op id,
// records a bench span named name around fn and attaches the span tree
// fn returns beneath it; main marks ops of the closed-loop client.
func (p *servePart) call(ph *phase, main bool, name string, fn func(op int64, traced bool) (*fastmatch.TraceSnapshot, error)) error {
	if ph.rec == nil {
		_, err := fn(0, false)
		return err
	}
	op := ph.rec.newOp()
	if main {
		ph.layer.addMainOp(op)
	}
	start := time.Now()
	snap, err := fn(op, true)
	id := ph.rec.add(op, 0, name, "bench", start, time.Now())
	ph.rec.attach(op, id, "server", snap)
	return err
}

// sample sends template t with seed to flights and returns the result
// bytes (for the cluster comparison); latency counts from start.
func (p *servePart) sample(ph *phase, main bool, t int, seed int64, start time.Time) ([]byte, error) {
	var result []byte
	err := p.call(ph, main, spanHTTPSample, func(op int64, traced bool) (*fastmatch.TraceSnapshot, error) {
		rep, pl, err := p.query(context.Background(), p.main.url, p.sampleRequest(tableStatic, t, seed, traced))
		if err != nil {
			return rep.Trace, err
		}
		ph.log.ok(kindSample, time.Since(start))
		result = rep.Result
		p.keepSample(t, pl)
		if main {
			ph.layer.addRun(op, httpFacts(false, p.tbl.NumRows(), pl, rep.Trace))
		}
		return rep.Trace, nil
	})
	if err != nil {
		ph.log.fail(kindSample, err)
	}
	return result, err
}

func (p *servePart) keepSample(t int, pl server.ResultPayload) {
	if !p.gradeSamples {
		return
	}
	ls, ds := labelsOf(pl)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.samples = append(p.samples, servedAnswer{tpl: t, labels: ls, dists: ds})
}

// exact sends template t as a cold Scan request to flights.
func (p *servePart) exact(ph *phase, main bool, t int, seed int64, start time.Time) error {
	err := p.call(ph, main, spanHTTPExact, func(op int64, traced bool) (*fastmatch.TraceSnapshot, error) {
		rep, pl, err := p.query(context.Background(), p.main.url, p.exactRequest(t, seed, traced))
		if err != nil {
			return rep.Trace, err
		}
		ph.log.ok(kindExact, time.Since(start))
		ls, ds := labelsOf(pl)
		p.mu.Lock()
		p.exacts = append(p.exacts, servedAnswer{tpl: t, labels: ls, dists: ds})
		p.mu.Unlock()
		if main {
			ph.layer.addRun(op, httpFacts(true, p.tbl.NumRows(), pl, rep.Trace))
		}
		return rep.Trace, nil
	})
	if err != nil {
		ph.log.fail(kindExact, err)
	}
	return err
}

// cacheHit repeats warmed request h, which must come from the result
// cache. It is never traced: a traced request bypasses the cache read.
func (p *servePart) cacheHit(ph *phase, main bool, h int, start time.Time) error {
	hot := p.hot[h%len(p.hot)]
	err := p.call(ph, main, spanHTTPCacheHit, func(int64, bool) (*fastmatch.TraceSnapshot, error) {
		rep, _, err := p.query(context.Background(), p.main.url, hot.body)
		if err != nil {
			return nil, err
		}
		if !rep.Cached {
			return nil, errors.New("repeat request missed the result cache")
		}
		ph.log.ok(kindCacheHit, time.Since(start))
		ph.layer.addCacheHit(rep.DurationNS)
		p.mu.Lock()
		p.hotPairs = append(p.hotPairs, [2][]byte{hot.result, rep.Result})
		p.mu.Unlock()
		return nil, nil
	})
	if err != nil {
		ph.log.fail(kindCacheHit, err)
	}
	return err
}

// streamTemplate is the template of every stream request (flights-q1).
// Time to the first ranking differs by template, and the median of a
// rotation through them jumps between the templates' modes.
const streamTemplate = 0

// stream sends template t with seed to /v1/query/stream; first_frame
// counts from start to the first progress frame that carries a ranking,
// the stage-1 frame. The "start" frame before it is an acknowledgement
// sent before any work, so its timing is that of the loopback round trip.
// It returns the result bytes of the terminal frame.
func (p *servePart) stream(ph *phase, main bool, t int, seed int64, start time.Time) ([]byte, error) {
	var result []byte
	err := p.call(ph, main, spanHTTPStream, func(op int64, traced bool) (*fastmatch.TraceSnapshot, error) {
		sent := time.Now()
		first, last, err := p.serveStack.stream(context.Background(), p.sampleRequest(tableStatic, t, seed, traced))
		if err != nil {
			return last.Trace, err
		}
		ph.log.ok(kindFirstFrame, sent.Sub(start)+first)
		result = last.Result
		if p.gradeSamples {
			var pl server.ResultPayload
			if err := json.Unmarshal(last.Result, &pl); err != nil {
				return last.Trace, err
			}
			p.keepSample(t, pl)
		}
		return last.Trace, nil
	})
	if err != nil {
		ph.log.fail(kindFirstFrame, err)
	}
	return result, err
}

// cluster sends template t with seed to flights_3shard; want is the
// single-node result bytes of the same request, which the 3-shard answer
// must equal byte for byte.
func (p *servePart) cluster(ph *phase, main bool, t int, seed int64, want []byte, start time.Time) error {
	err := p.call(ph, main, spanHTTPCluster, func(op int64, traced bool) (*fastmatch.TraceSnapshot, error) {
		rep, _, err := p.query(context.Background(), p.coord.url, p.sampleRequest(tableCluster, t, seed, traced))
		if err != nil {
			return rep.Trace, err
		}
		ph.log.ok(kindCluster, time.Since(start))
		p.mu.Lock()
		p.pairs = append(p.pairs, [2][]byte{want, rep.Result})
		p.mu.Unlock()
		return rep.Trace, nil
	})
	if err != nil {
		ph.log.fail(kindCluster, err)
	}
	return err
}

// clusterScan sends streamTemplate as a cold Scan request with seed to
// flights_3shard; its result bytes must equal scanRef.
func (p *servePart) clusterScan(ph *phase, seed int64, start time.Time) error {
	err := p.call(ph, false, spanHTTPCluster, func(op int64, traced bool) (*fastmatch.TraceSnapshot, error) {
		rep, _, err := p.query(context.Background(), p.coord.url, p.scanRequest(tableCluster, streamTemplate, seed, traced))
		if err != nil {
			return rep.Trace, err
		}
		if rep.Cached {
			return rep.Trace, errors.New("cold 3-shard request answered from the result cache")
		}
		ph.log.ok(kindCluster, time.Since(start))
		p.mu.Lock()
		p.pairs = append(p.pairs, [2][]byte{p.scanRef, rep.Result})
		p.mu.Unlock()
		return rep.Trace, nil
	})
	if err != nil {
		ph.log.fail(kindCluster, err)
	}
	return err
}

// live sends an exact scan of flights_live.
func (p *servePart) live(ph *phase, main bool, seed int64, start time.Time) error {
	err := p.call(ph, main, spanHTTPLive, func(op int64, traced bool) (*fastmatch.TraceSnapshot, error) {
		rep, pl, err := p.query(context.Background(), p.main.url, p.liveRequest(seed, traced))
		if err != nil {
			return rep.Trace, err
		}
		ph.log.ok(kindLive, time.Since(start))
		ls, ds := labelsOf(pl)
		p.mu.Lock()
		p.lives = append(p.lives, servedAnswer{rows: int(pl.IO.TuplesRead), labels: ls, dists: ds})
		p.mu.Unlock()
		return rep.Trace, nil
	})
	if err != nil {
		ph.log.fail(kindLive, err)
	}
	return err
}

// appendNext posts the next n source rows to flights_live as one batch;
// latency counts from due.
func (p *servePart) appendNext(ph *phase, due time.Time, n int) {
	if p.wrap && p.liveBase+p.appended+n > p.tbl.NumRows() {
		p.appended = 0
	}
	lo := p.liveBase + p.appended
	p.appended += n
	err := p.call(ph, false, spanHTTPAppend, func(int64, bool) (*fastmatch.TraceSnapshot, error) {
		body, err := p.appendBody(lo, n)
		if err != nil {
			return nil, err
		}
		if _, err := p.post(context.Background(), p.main.url+"/v1/tables/"+tableLive+"/rows", body); err != nil {
			return nil, err
		}
		ph.log.ok(kindAppend, time.Since(due))
		return nil, nil
	})
	if err != nil {
		p.mu.Lock()
		p.appendFailed = true
		p.mu.Unlock()
		ph.log.fail(kindAppend, err)
	}
}

// grade checks, off the timed path, every answer the phase collected:
// exact answers against brute force, sampling answers for precision and
// the separation guarantee, 3-shard answers and cache hits byte for
// byte, and live answers against brute force over the rows they saw.
func (p *servePart) grade(ph *phase) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, a := range p.exacts {
		if err := p.templates[a.tpl].truth.checkExact(a.labels, a.dists); err != nil {
			ph.log.mismatch(kindExact, fmt.Errorf("%s: %w", p.templates[a.tpl].id, err))
		}
	}
	for _, a := range p.samples {
		ph.log.graded(p.templates[a.tpl].truth.grade(a.labels))
	}
	for _, pr := range p.pairs {
		if !bytes.Equal(pr[0], pr[1]) {
			ph.log.mismatch(kindCluster, fmt.Errorf("3-shard result differs from single node:\n%s\nvs\n%s", pr[1], pr[0]))
		}
	}
	for _, pr := range p.hotPairs {
		if !bytes.Equal(pr[0], pr[1]) {
			ph.log.mismatch(kindCacheHit, errors.New("cached result differs from the first answer"))
		}
	}
	if !p.appendFailed {
		opts := fastmatch.DefaultOptions(0)
		for _, a := range p.lives {
			if err := p.gradeLive(a, opts.Params.Sigma, opts.Params.Epsilon); err != nil {
				ph.log.mismatch(kindLive, err)
			}
		}
	}
	p.exacts, p.samples, p.pairs, p.hotPairs, p.lives = nil, nil, nil, nil, nil
}

// gradeLive checks an exact live answer against brute force over the
// first a.rows static rows: the rows flights_live held when it answered.
func (p *servePart) gradeLive(a servedAnswer, sigma, eps float64) error {
	if a.rows < p.liveBase || (a.rows-p.liveBase)%p.batchRows != 0 || a.rows > p.tbl.NumRows() {
		return fmt.Errorf("live answer read %d rows, not the %d base rows plus whole batches", a.rows, p.liveBase)
	}
	hists, labels, err := histsAndLabels(p.tbl, "Origin", "DepartureHour", a.rows)
	if err != nil {
		return err
	}
	uniform := make([]float64, len(hists[0]))
	for i := range uniform {
		uniform[i] = 1
	}
	// Candidates the live table has not seen yet have empty histograms
	// and fall under σ, as they do in the engine.
	t := newTruth(hists, labels, uniform, p.liveTpl.k, sigma, eps, a.rows)
	if err := t.checkExact(a.labels, a.dists); err != nil {
		return fmt.Errorf("live answer over %d rows: %w", a.rows, err)
	}
	return nil
}

func (p *servePart) statsSnapshot() *serverStats {
	m, err := p.stats(p.main.url)
	if err != nil {
		return nil
	}
	c, err := p.stats(p.coord.url)
	if err != nil {
		return nil
	}
	return &serverStats{main: m, coord: c}
}

// serveMixed is the serve-mixed workload: one closed-loop reader cycling
// through six request kinds against a 500k-row flights stack, and one
// open-loop writer appending to flights_live.
type serveMixed struct {
	*servePart
	facts map[string]float64
	// lastSample carries the reader's cold sampling answer to the
	// cluster step of the same cycle.
	lastSample []byte
}

const (
	serveRows = 500_000
	// appendsPerSecond is the serve-mixed writer's rate: 40 batches of
	// appendBatch rows, 2 000 rows/s.
	appendsPerSecond = 40
	appendBatch      = 50
)

func newServeMixed(seed int64, dir string) (instance, error) {
	w := &serveMixed{facts: map[string]float64{}}
	t := time.Now()
	ds, err := datagen.ByName("flights", serveRows, dataSeed, 0)
	if err != nil {
		return nil, err
	}
	w.facts["generate_s"] = time.Since(t).Seconds()
	// The server builds its own engine; this one only times the cold
	// index build and planning the table costs.
	if _, err := timeIndexAndPrepare(fastmatch.NewEngine(ds.Table), flightsTemplates(), w.facts); err != nil {
		return nil, err
	}
	st, err := newServeStack(ds.Table, dir, serveRows/10)
	if err != nil {
		return nil, err
	}
	w.servePart = &servePart{serveStack: st, gradeSamples: true, batchRows: appendBatch}
	// Warm-up: one untimed reader cycle, graded so its answers do not
	// reach the timed phase's grades.
	warm := &phase{log: newOpLog(), seedBase: -seed - 1}
	for i := 0; i < 6; i++ {
		w.mainOp(i, warm)
	}
	w.grade(warm)
	if warm.log.failed > 0 {
		st.close()
		return nil, fmt.Errorf("warm-up failed: %v", warm.log.problems)
	}
	return w, nil
}

// timeIndexAndPrepare times the cold bitmap index build and the cold
// Prepare of each of specs (flights templates) on a fresh engine,
// returning the plans in order.
func timeIndexAndPrepare(eng *fastmatch.Engine, specs []expt.QuerySpec, facts map[string]float64) ([]*fastmatch.Plan, error) {
	t := time.Now()
	if _, err := eng.Index("Origin"); err != nil {
		return nil, err
	}
	facts["index_build_ms"] = float64(time.Since(t).Nanoseconds()) / 1e6
	t = time.Now()
	var plans []*fastmatch.Plan
	for _, spec := range specs {
		p, err := eng.Prepare(fastmatch.Query{Z: spec.Z, X: []string{spec.X}})
		if err != nil {
			return nil, err
		}
		plans = append(plans, p)
	}
	facts["prepare_ms"] = float64(time.Since(t).Nanoseconds()) / 1e6
	return plans, nil
}

func (w *serveMixed) mainOp(i int, ph *phase) int {
	cycle := i / 6
	t := cycle % len(w.templates)
	seed := ph.opSeed(0, cycle)
	start := time.Now()
	var err error
	switch i % 6 {
	case 0:
		w.lastSample, err = w.sample(ph, true, t, seed, start)
	case 1:
		err = w.exact(ph, true, t, seed, start)
	case 2:
		if w.lastSample == nil {
			return 0 // this cycle's single-node answer failed
		}
		err = w.cluster(ph, true, t, seed, w.lastSample, start)
	case 3:
		err = w.live(ph, true, seed, start)
	case 4:
		err = w.cacheHit(ph, true, cycle, start)
	case 5:
		_, err = w.stream(ph, true, streamTemplate, -seed, start)
	}
	if err != nil {
		return 0
	}
	return 1
}

func (w *serveMixed) openInterval() time.Duration { return time.Second / appendsPerSecond }

func (w *serveMixed) openOp(_ int, due time.Time, ph *phase) { w.appendNext(ph, due, appendBatch) }

func (w *serveMixed) required() []string {
	return []string{kindSample, kindExact, kindCacheHit, kindFirstFrame, kindCluster, kindAppend}
}

func (w *serveMixed) setupFacts() map[string]float64 { return w.facts }

func (w *serveMixed) describe(p *provenance) {
	p.Rows[tableStatic] = w.tbl.NumRows()
	p.Rows[tableCluster+" (3 shards)"] = w.tbl.NumRows()
	p.Rows[tableLive+" (base)"] = w.liveBase
	p.Rates["append_batches"] = appendsPerSecond
	p.Rates["append_rows"] = appendsPerSecond * appendBatch
	p.FlushPolicy = flushPolicy
}

func (w *serveMixed) close() { w.serveStack.close() }
