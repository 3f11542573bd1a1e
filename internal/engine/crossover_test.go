package engine

import (
	"math"
	"testing"
	"time"

	"fastmatch/internal/obs/trace"
)

// The crossover suite: a sampling run predicted to read most of the
// table is answered by the exact sequential Scan, and that answer is the
// Scan answer byte for byte. The harness-parameter rows of the decision
// table (Table 3 at 1M and 4M rows, flights-q1 at 8M and 16M) live in
// package expt, next to the parameters they are computed from.

func TestCrossoverDecisionServerDefaults(t *testing.T) {
	// The serving defaults (ε = 0.04, σ = 0.0008) over 500k rows and a
	// 24-group histogram: a candidate at the σ floor has 400 rows, and
	// round 1 asks for about 286,000 samples of it.
	fire, frac := DefaultOptions(500_000).Crossover(500_000, 24)
	if !fire {
		t.Fatalf("server defaults at 500k rows did not cross over (fraction %g)", frac)
	}
	if math.Round(frac) != 715 {
		t.Fatalf("predicted fraction %g, want about 715", frac)
	}
}

func TestCrossoverEligibility(t *testing.T) {
	base := DefaultOptions(500_000)
	cases := []struct {
		name string
		mut  func(*Options)
		want bool
	}{
		{"defaults", func(*Options) {}, true},
		{"scanmatch", func(o *Options) { o.Executor = ScanMatch }, true},
		{"syncmatch", func(o *Options) { o.Executor = SyncMatch }, true},
		{"scan", func(o *Options) { o.Executor = Scan }, false},
		{"parallelscan", func(o *Options) { o.Executor = ParallelScan }, false},
		{"disabled", func(o *Options) { o.DisableCrossover = true }, false},
		{"row budget", func(o *Options) { o.RowBudget = 1 << 40 }, false},
		{"deadline", func(o *Options) { o.Deadline = time.Now().Add(time.Hour) }, false},
		{"k range", func(o *Options) { o.Params.KRange.KMin, o.Params.KRange.KMax = 2, 5 }, false},
		{"wide epsilon", func(o *Options) { o.Params.Epsilon, o.Params.Sigma = 1, 0.05 }, false},
	}
	for _, tc := range cases {
		o := base
		tc.mut(&o)
		if got, frac := o.Crossover(500_000, 24); got != tc.want {
			t.Errorf("%s: crossover %v (fraction %g), want %v", tc.name, got, frac, tc.want)
		}
	}
}

// TestCrossoverAnswerIsScanAnswer runs each sampling executor with the
// crossover on and compares it with an explicit Scan run: the results
// must differ only in the Crossover flag, and the run must have been
// traced and streamed as a Scan.
func TestCrossoverAnswerIsScanAnswer(t *testing.T) {
	for name, src := range cancelBackends(t) {
		eng := New(src)
		scanOpts := equivOptions(Scan, src.NumBlocks())
		var scanFrames []Progress
		scanOpts.OnProgress = func(p Progress) { scanFrames = append(scanFrames, p) }
		want, err := eng.Run(baseQuery(), Target{Uniform: true}, scanOpts)
		if err != nil {
			t.Fatal(err)
		}
		for _, exec := range samplingExecutors() {
			t.Run(name+"/"+exec.String(), func(t *testing.T) {
				opts := equivOptions(exec, src.NumBlocks())
				opts.DisableCrossover = false
				var frames []Progress
				opts.OnProgress = func(p Progress) { frames = append(frames, p) }
				tr := trace.New("crossover")
				opts.Trace = tr
				res, err := eng.Run(baseQuery(), Target{Uniform: true}, opts)
				if err != nil {
					t.Fatal(err)
				}
				tr.End()
				if !res.Crossover || res.Sampler != nil || !res.Exact {
					t.Fatalf("crossover=%v sampler=%v exact=%v, want a crossover Scan answer",
						res.Crossover, res.Sampler, res.Exact)
				}
				res.Crossover = false
				if got, want := canonicalResult(t, res), canonicalResult(t, want); got != want {
					t.Fatalf("crossover answer diverges from Scan:\n%s\nvs\n%s", got, want)
				}
				if len(frames) == 0 || len(frames) != len(scanFrames) {
					t.Fatalf("%d progress frames, Scan emitted %d", len(frames), len(scanFrames))
				}
				for _, f := range frames {
					if f.Phase != "scan" {
						t.Fatalf("crossover run emitted a %q frame", f.Phase)
					}
				}
				rs := tr.Snapshot().Find("run")
				if rs == nil || rs.Attrs["crossover"] != true {
					t.Fatalf("run span does not record the crossover: %+v", rs)
				}
				if f, _ := rs.Attrs["predicted_fraction"].(float64); f < crossoverThreshold {
					t.Fatalf("predicted_fraction attr %v below the threshold", rs.Attrs["predicted_fraction"])
				}
			})
		}
	}
}

// TestCrossoverKeepsSamplerWhenIneligible pins the opt-outs that come
// from the query rather than the knob: a row budget or a deadline (the
// partial answer depends on the sampler's read order) and a k range
// (Scan ranks KMax matches, HistSim picks the widest-gap k).
func TestCrossoverKeepsSamplerWhenIneligible(t *testing.T) {
	tbl := testDataset(t, 40_000, 20, 8, 5)
	eng := New(tbl)
	cases := map[string]func(*Options){
		"row budget": func(o *Options) { o.RowBudget = int64(10 * tbl.NumRows()) },
		"deadline":   func(o *Options) { o.Deadline = time.Now().Add(time.Hour) },
		"k range":    func(o *Options) { o.Params.K, o.Params.KRange.KMin, o.Params.KRange.KMax = 0, 2, 4 },
	}
	for name, mut := range cases {
		t.Run(name, func(t *testing.T) {
			opts := equivOptions(FastMatch, tbl.NumBlocks())
			opts.DisableCrossover = false
			mut(&opts)
			res, err := eng.Run(baseQuery(), Target{Uniform: true}, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Crossover {
				t.Fatal("ineligible run crossed over")
			}
			requireSampled(t, FastMatch, res)
		})
	}
}
