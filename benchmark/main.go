// Command benchmark runs one fastmatch benchmark workload, checks its
// answers, and prints every metric with its unit; its last stdout line
// is a JSON summary. Run it from the repository root:
//
//	bash benchmark/run.sh --workload table3-inmem --seed 1 --seconds 15 --trace 0
//	bash benchmark/run.sh compare [--spec BENCHMARK.json] <dir A> <dir B>
//
// See benchmark/README.md for the workloads and metrics.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"
)

// errorFloor is added to error_rate so that it is never 0 and a relative
// bound applies to it: a run without failures reads exactly errorFloor,
// whatever its op count, and any failed op makes it worse.
const errorFloor = 1e-3

// outDir holds everything a run leaves behind: scratch data (removed at
// exit), result files and span files.
const outDir = ".bench_build"

// instance is one set-up workload, ready for its timed phase.
type instance interface {
	// mainOp runs the closed-loop client's step i and returns how many
	// queries it completed.
	mainOp(i int, ph *phase) int
	// openInterval is the open-loop client's send interval (0: none).
	openInterval() time.Duration
	// openOp runs the open-loop client's op i, due at due.
	openOp(i int, due time.Time, ph *phase)
	// required lists the op kinds whose metrics the phase must support.
	required() []string
	// grade checks the answers collected in ph off the timed path.
	grade(ph *phase)
	// setupFacts reports the timed set-up calls, in seconds.
	setupFacts() map[string]float64
	// statsSnapshot reads the servers' counters (nil without servers).
	statsSnapshot() *serverStats
	describe(p *provenance)
	close()
}

// selfChecker is an instance with a check of the benchmark's own set-up.
// It runs once, after the timed set-ups and before the timed phase.
type selfChecker interface {
	selfCheck() error
}

// dataSeed generates every table. The tables are the same for every
// --seed, as the paper's datasets were fixed; --seed varies what the
// paper varied between runs, each query's random start block, along with
// every other request seed. Runs with different seeds thus differ in
// sampling order, not in data, which keeps their spread small.
const dataSeed = 1

// workloads maps each workload name to its constructor. A constructor
// builds everything under dir and warms it up with requests seeded
// apart from the timed phase's.
var workloads = map[string]func(seed int64, dir string) (instance, error){
	"table3-inmem":       newTable3,
	"flights-large-mmap": newLargeMmap,
	"serve-mixed":        newServeMixed,
}

// setUps is how many times a run sets its workload up; setup_s is their
// median. flights-large-mmap sets up twice: each of its set-ups
// generates 16M rows, which takes about ten seconds.
func setUps(name string) int {
	if name == "flights-large-mmap" {
		return 2
	}
	return 3
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	fs := flag.NewFlagSet("benchmark", flag.ExitOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(sortedKeys(workloads), ", "))
	seed := fs.Int64("seed", 1, "workload seed: every request seed derives from it")
	seconds := fs.Int("seconds", 15, "length of the timed phase")
	traceFlag := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	_ = fs.Parse(os.Args[1:]) // ExitOnError exits on a bad flag
	if _, ok := workloads[*name]; !ok || *seconds < 1 || *traceFlag < 0 || *traceFlag > 1 {
		fmt.Fprintf(os.Stderr, "benchmark: need --workload (%s), --seconds ≥ 1 and --trace 0 or 1\n",
			strings.Join(sortedKeys(workloads), ", "))
		os.Exit(2)
	}
	rec, err := run(*name, *seed, *seconds, *traceFlag == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
	if err := saveRecord(rec); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: saving result: %v\n", err)
		os.Exit(1)
	}
	if err := printReport(os.Stdout, rec); err != nil {
		os.Exit(1)
	}
	if !rec.Correct {
		os.Exit(1)
	}
}

func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	spec := fs.String("spec", "BENCHMARK.json", "benchmark spec holding the bounds")
	_ = fs.Parse(args) // ExitOnError exits on a bad flag
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: compare [--spec BENCHMARK.json] <result dir A (parent)> <result dir B (change)>")
		return 2
	}
	worse, err := runCompare(os.Stdout, *spec, fs.Arg(0), fs.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "compare: %v\n", err)
		return 1
	}
	if worse > 0 {
		return 3
	}
	return 0
}

// phase is the state of one timed phase shared by the clients.
type phase struct {
	log *opLog
	// rec records spans; nil in an untraced phase.
	rec *recorder
	// seedBase makes per-op request seeds distinct across phases.
	seedBase int64
	layer    *layerAgg
}

// opSeed is the request seed of op i of a client (0 closed, 1 open).
func (ph *phase) opSeed(client, i int) int64 {
	return ph.seedBase*1_000_003 + int64(client)*500_000 + int64(i) + 1
}

// phaseResult is what a timed phase measured.
type phaseResult struct {
	ph       *phase
	elapsed  time.Duration
	queries  int
	lateness []time.Duration
	rt0, rt1 runtimeSnap
	stats0   *serverStats
	stats1   *serverStats
}

// runPhase runs both clients for nominal (longer only until every
// required op kind has enough samples) and grades the answers.
func runPhase(inst instance, nominal time.Duration, ph *phase, required []string) *phaseResult {
	pr := &phaseResult{ph: ph, stats0: inst.statsSnapshot()}
	stop, cancel := context.WithCancel(context.Background())
	defer cancel()
	pr.rt0 = readRuntime()
	start := time.Now()
	end := phaseEnd{start: start, nominal: nominal, required: required, log: ph.log}
	var wg sync.WaitGroup
	if iv := inst.openInterval(); iv > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			far := start.Add(3*nominal + time.Minute)
			pr.lateness = openLoop(stop, wallClock{}, start, iv, far, func(i int, due time.Time) {
				inst.openOp(i, due, ph)
			})
		}()
	}
	for i := 0; !end.done(); i++ {
		pr.queries += inst.mainOp(i, ph)
	}
	cancel()
	wg.Wait()
	pr.elapsed = time.Since(start)
	pr.rt1 = readRuntime()
	pr.stats1 = inst.statsSnapshot()
	inst.grade(ph)
	return pr
}

// run sets the workload up setUps(name) times, keeps the last set-up, and
// measures it: one untraced phase, or for a traced run an untraced and a
// traced half (their throughput ratio is the tracing overhead).
func run(name string, seed int64, seconds int, traced bool) (*record, error) {
	work := filepath.Join(outDir, "work", fmt.Sprintf("%s-%d", name, os.Getpid()))
	defer os.RemoveAll(work)
	var inst instance
	defer func() {
		if inst != nil {
			inst.close()
		}
	}()
	var setups []float64
	facts := map[string][]float64{}
	var rec *recorder // spans of a traced run, set-ups included
	if traced {
		rec = newRecorder()
	}
	for r := 0; r < setUps(name); r++ {
		if inst != nil {
			inst.close()
			inst = nil
			freeMemory()
		}
		dir := filepath.Join(work, fmt.Sprintf("setup%d", r))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		t := time.Now()
		var err error
		if inst, err = workloads[name](seed, dir); err != nil {
			return nil, fmt.Errorf("setting up %s: %w", name, err)
		}
		setups = append(setups, time.Since(t).Seconds())
		rec.add(rec.newOp(), 0, "setup", "bench", t, time.Now())
		for k, v := range inst.setupFacts() {
			facts[k] = append(facts[k], v)
		}
	}
	if c, ok := inst.(selfChecker); ok {
		if err := c.selfCheck(); err != nil {
			return nil, err
		}
	}
	// peak_rss_mb covers the timed phase only: set-up peaks (data
	// generation, ground truth) are returned to the system and forgotten.
	freeMemory()
	debug.FreeOSMemory()
	if err := resetHWM(); err != nil {
		return nil, err
	}

	out := &record{Workload: name, Trace: traced, Provenance: newProvenance(seed, seconds), Metrics: map[string]metric{}}
	inst.describe(&out.Provenance)
	nominal := time.Duration(seconds) * time.Second
	var res *phaseResult
	var logs []*opLog
	if !traced {
		res = runPhase(inst, nominal, &phase{log: newOpLog(), seedBase: seed}, inst.required())
		logs = append(logs, res.ph.log)
		lat, err := latencyMetrics(res.ph.log)
		if err != nil {
			for _, k := range sortedKeys(res.ph.log.lat) {
				xs := res.ph.log.lat[k]
				fmt.Fprintf(os.Stderr, "  %-12s %5d samples, median %.3f ms\n", k, len(xs), median(xs))
			}
			return nil, err
		}
		out.Metrics = lat
		out.Metrics["setup_s"] = metric{median(setups), "s"}
		out.Metrics["queries_per_s"] = metric{float64(res.queries) / res.elapsed.Seconds(), "1/s"}
		prec := res.ph.log.precision
		if len(prec) == 0 {
			return nil, fmt.Errorf("no graded sampling answers for precision_at_k")
		}
		out.Metrics["precision_at_k"] = metric{mean(prec), "ratio"}
	} else {
		plain := runPhase(inst, nominal/2, &phase{log: newOpLog(), seedBase: seed}, nil)
		res = runPhase(inst, nominal/2, &phase{log: newOpLog(), seedBase: seed + 7_777, rec: rec, layer: newLayerAgg()}, nil)
		logs = append(logs, plain.ph.log, res.ph.log)
		out.Metrics = layerMetrics(res, facts)
		over := 100 * ((float64(plain.queries) / plain.elapsed.Seconds()) / (float64(res.queries) / res.elapsed.Seconds()))
		out.Metrics["bench.trace_overhead_pct"] = metric{over - 100, "%"}
		if err := os.MkdirAll(filepath.Join(outDir, "traces"), 0o755); err != nil {
			return nil, err
		}
		path := filepath.Join(outDir, "traces", fmt.Sprintf("%s-seed%d.json", name, seed))
		if err := res.ph.rec.writeFile(path); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Printf("spans written to %s\n", path)
	}
	out.Correct = true
	out.Samples = sampleCounts(res.ph.log)
	out.Spread = map[string][5]float64{}
	for _, k := range sortedKeys(res.ph.log.lat) {
		s := sortedCopy(res.ph.log.lat[k])
		var q [5]float64
		for i, p := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
			q[i] = s[nearestRank(p, len(s))-1]
		}
		out.Spread[k] = q
	}
	for _, l := range logs {
		out.Attempted += l.attempted
		out.Failed += l.failed
		out.Problems = append(out.Problems, l.problems...)
		out.Correct = out.Correct && !l.incorrect
	}
	if !traced {
		out.Metrics["error_rate"] = metric{float64(out.Failed)/float64(max(out.Attempted, 1)) + errorFloor, "ratio"}
		rss, err := vmHWM()
		if err != nil {
			return nil, err
		}
		out.Metrics["peak_rss_mb"] = metric{rss, "MB"}
	}
	for n, m := range out.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", n, m.Value)
		}
	}
	return out, nil
}

// saveRecord writes the run's full result file under outDir/results.
func saveRecord(rec *record) error {
	dir := filepath.Join(outDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%v-%s.json", rec.Workload, rec.Provenance.Seed, rec.Trace,
		time.Now().UTC().Format("20060102T150405.000"))
	return os.WriteFile(filepath.Join(dir, name), mustJSON(rec), 0o644)
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
