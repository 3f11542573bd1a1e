package expt

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"fastmatch/internal/engine"
	"fastmatch/internal/histogram"
)

// smallWorkspace builds a reduced workspace for tests (≈80k rows/dataset).
func smallWorkspace(t testing.TB) *Workspace {
	t.Helper()
	w, err := NewWorkspace(Config{
		Rows: 80_000, Seed: 5, Reps: 1, Epsilon: 0.12, BlockSize: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestQueryByID(t *testing.T) {
	q, err := QueryByID("flights-q1")
	if err != nil || q.Z != "Origin" || q.X != "DepartureHour" || q.K != 10 {
		t.Fatalf("flights-q1 lookup wrong: %+v err=%v", q, err)
	}
	if _, err := QueryByID("nope"); err == nil {
		t.Fatal("unknown query accepted")
	}
}

func TestQueriesMatchTable3(t *testing.T) {
	if len(Queries) != 9 {
		t.Fatalf("query suite has %d entries, Table 3 has 9", len(Queries))
	}
	ks := map[string]int{"flights-q3": 5, "police-q3": 5}
	for _, q := range Queries {
		wantK := 10
		if k, ok := ks[q.ID]; ok {
			wantK = k
		}
		if q.K != wantK {
			t.Errorf("%s has k=%d, want %d", q.ID, q.K, wantK)
		}
	}
}

func TestWorkspacePreparesAllQueries(t *testing.T) {
	w := smallWorkspace(t)
	for _, q := range Queries {
		target, err := w.Target(q.ID)
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		if target.Total() <= 0 {
			t.Fatalf("%s: empty target", q.ID)
		}
	}
}

func TestWorkspaceRunAllQueriesAllExecutors(t *testing.T) {
	if testing.Short() {
		t.Skip("workspace suite skipped in -short mode")
	}
	w := smallWorkspace(t)
	for _, q := range Queries {
		for _, exec := range []engine.Executor{engine.Scan, engine.ScanMatch, engine.SyncMatch, engine.FastMatch} {
			res, err := w.Run(q.ID, exec, RunOverrides{Seed: 2, DisableCrossover: true})
			if err != nil {
				t.Fatalf("%s %v: %v", q.ID, exec, err)
			}
			if len(res.TopK) == 0 {
				t.Fatalf("%s %v: empty answer", q.ID, exec)
			}
		}
	}
}

func TestExactTopKAndDeltaD(t *testing.T) {
	w := smallWorkspace(t)
	top, dist, err := w.ExactTopK("flights-q1", histogram.MetricL1, w.Cfg.Sigma)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 10 {
		t.Fatalf("exact top-k size %d", len(top))
	}
	if len(dist) != 347 {
		t.Fatalf("dist vector size %d", len(dist))
	}
	// A result exactly equal to the true top-k has Δd = 0.
	res, err := w.Run("flights-q1", engine.Scan, RunOverrides{})
	if err != nil {
		t.Fatal(err)
	}
	dd, err := DeltaD(w, "flights-q1", res)
	if err != nil {
		t.Fatal(err)
	}
	if dd != 0 {
		t.Fatalf("Scan Δd = %g, want 0", dd)
	}
}

func TestViolatesGuaranteesOnExactResult(t *testing.T) {
	w := smallWorkspace(t)
	res, err := w.Run("police-q1", engine.Scan, RunOverrides{})
	if err != nil {
		t.Fatal(err)
	}
	viol, err := ViolatesGuarantees(w, "police-q1", res, w.Cfg.Epsilon)
	if err != nil {
		t.Fatal(err)
	}
	if viol {
		t.Fatal("exact Scan result flagged as violating guarantees")
	}
}

func TestApproximateRunsMeetGuarantees(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test skipped in -short mode")
	}
	w := smallWorkspace(t)
	for _, qid := range []string{"flights-q1", "police-q2"} {
		res, err := w.Run(qid, engine.FastMatch, RunOverrides{Seed: 9, DisableCrossover: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Sampler == nil {
			t.Fatalf("%s: FastMatch run was answered by Scan", qid)
		}
		viol, err := ViolatesGuarantees(w, qid, res, w.Cfg.Epsilon)
		if err != nil {
			t.Fatal(err)
		}
		if viol {
			t.Errorf("%s: FastMatch violated guarantees", qid)
		}
	}
}

func TestTable5Shape(t *testing.T) {
	w := smallWorkspace(t)
	rows, err := Table5(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("Table 5 has %d rows, want 4 flights queries", len(rows))
	}
	for _, r := range rows {
		if r.Overlap < 0 || r.Overlap > 1 {
			t.Errorf("%s overlap %g out of range", r.Query, r.Overlap)
		}
		// The paper reports ≥ 0.6 overlap and ≤ 4% relative difference;
		// on synthetic data we check the weaker structural property that
		// the L2 top-k is never L1-better than the L1 top-k.
		if r.RelDistDiff < -1e-9 {
			t.Errorf("%s: L2 top-k beat L1 top-k in L1 distance (%g)", r.Query, r.RelDistDiff)
		}
	}
	var buf bytes.Buffer
	FprintTable5(&buf, rows)
	if !strings.Contains(buf.String(), "flights-q1") {
		t.Fatal("Table 5 rendering missing rows")
	}
}

func TestSweepRendering(t *testing.T) {
	points := []SweepPoint{
		{
			X: 0.04,
			Times: map[string]time.Duration{
				"ScanMatch": time.Second, "SyncMatch": 2 * time.Second, "FastMatch": 300 * time.Millisecond,
			},
			DeltaD: map[string]float64{"ScanMatch": 0.01, "SyncMatch": 0.02, "FastMatch": 0.005},
		},
	}
	var buf bytes.Buffer
	FprintSweep(&buf, "epsilon", points, true)
	out := buf.String()
	for _, want := range []string{"epsilon", "FastMatch(s)", "0.3000", "0.0050"} {
		if !strings.Contains(out, want) {
			t.Errorf("sweep rendering missing %q in:\n%s", want, out)
		}
	}
	FprintSweep(&buf, "x", nil, false) // empty input: no panic
}

func TestFigureSweepsRunSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep test skipped in -short mode")
	}
	w := smallWorkspace(t)
	f8, err := Figure8(w, "police-q1", []float64{0.15, 0.25}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(f8) != 2 {
		t.Fatalf("figure 8 points = %d", len(f8))
	}
	f10, err := Figure10(w, "police-q1", []int{16, 256}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(f10) != 2 {
		t.Fatalf("figure 10 points = %d", len(f10))
	}
	f11, err := Figure11(w, "police-q1", []float64{0.01, 0.05}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(f11) != 2 {
		t.Fatalf("figure 11 points = %d", len(f11))
	}
}

func TestTable4Small(t *testing.T) {
	if testing.Short() {
		t.Skip("table 4 test skipped in -short mode")
	}
	w := smallWorkspace(t)
	// Restrict to a fast subset by running the helper per query instead of
	// the full suite: take just the police queries via a trimmed copy.
	rows, err := Table4(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Queries) {
		t.Fatalf("table 4 rows = %d", len(rows))
	}
	crossed := false
	for _, r := range rows {
		for _, exec := range []string{"ScanMatch", "SyncMatch", "FastMatch"} {
			if r.Times[exec] <= 0 {
				t.Errorf("%s %s: no time recorded", r.Query, exec)
			}
			crossed = crossed || r.Crossover[exec]
		}
	}
	var buf bytes.Buffer
	FprintTable4(&buf, rows)
	if !strings.Contains(buf.String(), "taxi-q2") {
		t.Fatal("Table 4 rendering missing rows")
	}
	// 80k rows are far too few for the samplers: Table 4 keeps the
	// crossover on and marks the runs it answered with Scan.
	if !crossed || !strings.Contains(buf.String(), "* crossed over") {
		t.Fatalf("Table 4 shows no crossover at 80k rows:\n%s", buf.String())
	}
}

// TestCrossoverDecisionTable pins the crossover's predicted read fraction
// under the harness parameters. Table 3 crosses over at 1M rows (FastMatch
// 18–64 ms against Scan 2.3–6.7 ms on a 2-vCPU box) and at 4M rows
// (FastMatch 3–10× slower than Scan); flights-q1 crosses over at 8M rows
// (37 ms against 15 ms) and keeps sampling at 16M (42 ms against 44 ms).
func TestCrossoverDecisionTable(t *testing.T) {
	w := smallWorkspace(t)
	cfg := Config{}.WithDefaults()
	fraction := func(id string, rows int64) (bool, float64) {
		spec, err := QueryByID(id)
		if err != nil {
			t.Fatal(err)
		}
		target, err := w.Target(id)
		if err != nil {
			t.Fatal(err)
		}
		opts := engine.Options{
			Params:   cfg.runParams(spec.K, target.Groups(), rows, RunOverrides{}),
			Executor: engine.FastMatch,
		}
		return opts.Crossover(rows, target.Groups())
	}
	for _, tc := range []struct {
		rows     int64
		min, max float64
	}{{1_000_000, 4.9, 23.2}, {4_000_000, 1.2, 5.8}} {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, q := range Queries {
			fire, f := fraction(q.ID, tc.rows)
			if !fire {
				t.Errorf("%s at %d rows keeps sampling (fraction %.3f)", q.ID, tc.rows, f)
			}
			lo, hi = math.Min(lo, f), math.Max(hi, f)
		}
		if math.Round(lo*10)/10 != tc.min || math.Round(hi*10)/10 != tc.max {
			t.Errorf("Table 3 at %d rows: fractions %.2f–%.2f, want %.1f–%.1f", tc.rows, lo, hi, tc.min, tc.max)
		}
	}
	for _, tc := range []struct {
		rows int64
		want float64
		fire bool
	}{{8_000_000, 0.61, true}, {16_000_000, 0.305, false}} {
		fire, f := fraction("flights-q1", tc.rows)
		if fire != tc.fire || math.Abs(f-tc.want) > 0.005 {
			t.Errorf("flights-q1 at %d rows: crossover %v fraction %.4f, want %v %.3f", tc.rows, fire, f, tc.fire, tc.want)
		}
	}
}
