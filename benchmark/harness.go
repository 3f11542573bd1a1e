package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// Op kinds. Each end-to-end latency metric reads one kind's samples.
const (
	kindSample     = "sample"      // sampling query, client-side latency
	kindExact      = "exact"       // Scan query
	kindFirstFrame = "first_frame" // stream request, time to first NDJSON frame
	kindCacheHit   = "cache_hit"   // repeat request served from the result cache
	kindCluster    = "cluster"     // 3-shard coordinated query
	kindAppend     = "append"      // append batch, timed from its due time
	kindLive       = "live"        // query on the live-ingest table
)

// tailKinds need enough samples for a p95 with ten samples beyond it;
// the other kinds only report a median and need a few dozen.
var tailKinds = []string{kindSample, kindExact, kindCluster, kindAppend}

const minMedianSamples = 30

// opLog collects every op's outcome during the timed phase. Both client
// goroutines write to it.
type opLog struct {
	mu        sync.Mutex
	lat       map[string][]float64 // milliseconds, per kind
	attempted int64
	failed    int64
	problems  []string
	incorrect bool
	// precision and violations are the grades of the sampling answers.
	precision  []float64
	violations int
}

func newOpLog() *opLog { return &opLog{lat: map[string][]float64{}} }

// ok records a successful op of kind that took d.
func (l *opLog) ok(kind string, d time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attempted++
	l.lat[kind] = append(l.lat[kind], float64(d.Nanoseconds())/1e6)
}

// fail records an op that errored, answered non-2xx or partially, or
// otherwise did not do what it was sent to do.
func (l *opLog) fail(kind string, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attempted++
	l.failed++
	l.note(fmt.Sprintf("%s failed: %v", kind, err))
}

// mismatch records a wrong answer found while grading: it fails the op
// (already counted as attempted) and makes the run incorrect.
func (l *opLog) mismatch(kind string, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.failed++
	l.incorrect = true
	l.note(fmt.Sprintf("%s mismatch: %v", kind, err))
}

// note keeps the first few problem descriptions; l.mu must be held.
func (l *opLog) note(msg string) {
	if len(l.problems) < 20 {
		l.problems = append(l.problems, msg)
	}
}

// graded records one sampling answer's grade.
func (l *opLog) graded(precision float64, violations int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.precision = append(l.precision, precision)
	l.violations += violations
}

func (l *opLog) count(kind string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.lat[kind])
}

func (l *opLog) samples(kind string) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]float64(nil), l.lat[kind]...)
}

// enough reports whether every kind in kinds has the samples its
// metrics need.
func (l *opLog) enough(kinds []string) bool {
	need := minSamplesFor(0.95)
	for _, k := range kinds {
		n := l.count(k)
		if isTailKind(k) && n < need || n < minMedianSamples {
			return false
		}
	}
	return true
}

func isTailKind(k string) bool {
	for _, t := range tailKinds {
		if t == k {
			return true
		}
	}
	return false
}

// phaseEnd decides when a timed phase stops: at its nominal length once
// every required kind has enough samples, and in any case at three
// times the nominal length.
type phaseEnd struct {
	start    time.Time
	nominal  time.Duration
	required []string
	log      *opLog
}

func (p phaseEnd) done() bool {
	el := time.Since(p.start)
	return el >= 3*p.nominal || el >= p.nominal && p.log.enough(p.required)
}

// runtimeSnap holds the runtime/metrics counters read at the edges of a
// timed phase.
type runtimeSnap struct {
	allocBytes uint64
	gcCycles   uint64
	gcPauses   *metrics.Float64Histogram
	schedLat   *metrics.Float64Histogram
}

func readRuntime() runtimeSnap {
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/sched/pauses/total/gc:seconds"},
		{Name: "/sched/latencies:seconds"},
	}
	metrics.Read(samples)
	var s runtimeSnap
	if samples[0].Value.Kind() == metrics.KindUint64 {
		s.allocBytes = samples[0].Value.Uint64()
	}
	if samples[1].Value.Kind() == metrics.KindUint64 {
		s.gcCycles = samples[1].Value.Uint64()
	}
	if samples[2].Value.Kind() == metrics.KindFloat64Histogram {
		s.gcPauses = samples[2].Value.Float64Histogram()
	}
	if samples[3].Value.Kind() == metrics.KindFloat64Histogram {
		s.schedLat = samples[3].Value.Float64Histogram()
	}
	return s
}

// histP99 returns the 0.99 quantile, in milliseconds, of the events a
// runtime histogram gained between a and b (the upper edge of the bucket
// holding it), or 0 when there were none.
func histP99(a, b *metrics.Float64Histogram) float64 {
	if a == nil || b == nil || len(a.Counts) != len(b.Counts) {
		return 0
	}
	var total uint64
	delta := make([]uint64, len(b.Counts))
	for i := range b.Counts {
		delta[i] = b.Counts[i] - a.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(0.99 * float64(total)))
	var seen uint64
	for i, c := range delta {
		seen += c
		if seen >= rank {
			edge := b.Buckets[i+1]
			if math.IsInf(edge, 1) {
				edge = b.Buckets[i]
			}
			return edge * 1e3
		}
	}
	return 0
}

// runtimeMetrics reports the runtime per-layer metrics over a phase of
// ops operations.
func runtimeMetrics(a, b runtimeSnap, ops int64) map[string]metric {
	perOp := 0.0
	if ops > 0 {
		perOp = float64(b.allocBytes-a.allocBytes) / float64(ops)
	}
	return map[string]metric{
		"runtime.alloc_bytes_per_op":   {perOp, "B"},
		"runtime.gc_cycles":            {float64(b.gcCycles - a.gcCycles), "count"},
		"runtime.gc_pause_p99_ms":      {histP99(a.gcPauses, b.gcPauses), "ms"},
		"runtime.sched_latency_p99_ms": {histP99(a.schedLat, b.schedLat), "ms"},
	}
}

// freeMemory collects a discarded set-up's garbage, so that the next
// set-up reuses that heap instead of raising the process's peak.
func freeMemory() {
	runtime.GC()
	runtime.GC()
}

// latencyMetrics computes the end-to-end latency metrics from the phase's
// samples; a tail kind without enough samples is an error.
func latencyMetrics(l *opLog) (map[string]metric, error) {
	out := map[string]metric{}
	for _, m := range []struct {
		name, kind string
		p          float64
	}{
		{"sample_p50_ms", kindSample, 0.5},
		{"sample_p95_ms", kindSample, 0.95},
		{"exact_p50_ms", kindExact, 0.5},
		{"exact_p95_ms", kindExact, 0.95},
		{"first_frame_p50_ms", kindFirstFrame, 0.5},
		{"cache_hit_p50_ms", kindCacheHit, 0.5},
		{"cluster_p50_ms", kindCluster, 0.5},
		{"cluster_p95_ms", kindCluster, 0.95},
		{"append_p50_ms", kindAppend, 0.5},
		{"append_p95_ms", kindAppend, 0.95},
	} {
		xs := l.samples(m.kind)
		if len(xs) == 0 {
			return nil, fmt.Errorf("%s: no %s samples", m.name, m.kind)
		}
		v := median(xs)
		if m.p != 0.5 {
			var err error
			if v, err = tailPercentile(xs, m.p); err != nil {
				return nil, fmt.Errorf("%s: %w", m.name, err)
			}
		}
		out[m.name] = metric{v, "ms"}
	}
	return out, nil
}

// sampleCounts reports how many samples each kind holds.
func sampleCounts(l *opLog) map[string]int {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := map[string]int{}
	for k, v := range l.lat {
		out[k] = len(v)
	}
	return out
}
