package engine

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Golden sampling sequences. The byte-identity suites (backend, skip,
// worker count, shard count) compare the sampler only with itself, so a
// change that shifts the walk the same way in every configuration passes
// all of them. These files pin the walk's output against a recorded
// reference instead: the canonical Result JSON (Duration zeroed), the
// IOStats, and every progress frame (Elapsed zeroed), for each sampling
// executor × 2 seeds × {uniform, candidate} target × {unbounded, row
// budget cut short}. A refactor of the walk must leave every byte as
// it is. A deliberate change to the sampling sequence re-records the
// files by writing goldenRender's output over them, and the diff then
// shows what the change moved. Float formatting follows encoding/json on
// amd64, where the compiler never fuses multiply-adds.

// goldenBudget cuts a budgeted run short in stage 2. Candidate-target
// resolution charges the same budget, and the target candidate below
// occurs in every block (200,000 rows), so those runs get that much more.
func (c goldenCase) goldenBudget() int64 {
	if c.candidate {
		return 350_000
	}
	return 150_000
}

type goldenCase struct {
	exec      Executor
	seed      int64
	candidate bool
	budget    bool
}

func (c goldenCase) name() string {
	target, budget := "uniform", "full"
	if c.candidate {
		target = "candidate"
	}
	if c.budget {
		budget = "budget"
	}
	return fmt.Sprintf("%s-seed%d-%s-%s", strings.ToLower(c.exec.String()), c.seed, target, budget)
}

func goldenCases() []goldenCase {
	var out []goldenCase
	for _, exec := range []Executor{ScanMatch, SyncMatch, FastMatch} {
		for _, seed := range []int64{1, 2} {
			for _, candidate := range []bool{false, true} {
				for _, budget := range []bool{false, true} {
					out = append(out, goldenCase{exec, seed, candidate, budget})
				}
			}
		}
	}
	return out
}

// goldenRender runs one case and renders it as JSON lines: the result,
// its IOStats, the top-k histograms' counts, then one line per progress
// frame.
func goldenRender(t *testing.T, e *Engine, candidate string, c goldenCase) []byte {
	t.Helper()
	target := Target{Uniform: true}
	if c.candidate {
		target = Target{Candidate: candidate}
	}
	var frames []Progress
	opts := Options{
		Params:           testParams(),
		Executor:         c.exec,
		DisableCrossover: true,
		// Marking tiles span several chunk commits, so FastMatch's
		// stale marks read differently from SyncMatch's probes.
		Lookahead:  256,
		StartBlock: -1,
		Seed:       c.seed,
		Workers:    2,
		OnProgress: func(p Progress) {
			p.Elapsed = 0
			frames = append(frames, p)
		},
	}
	if c.budget {
		opts.RowBudget = c.goldenBudget()
	}
	res, err := e.Run(baseQuery(), target, opts)
	switch {
	case c.budget && !errors.Is(err, ErrBudgetExhausted):
		t.Fatalf("budgeted run ended with %v, want a budget stop", err)
	case !c.budget && err != nil:
		t.Fatal(err)
	}
	if res == nil || res.Sampler == nil || res.Partial != c.budget {
		t.Fatalf("run not answered by a sampler as expected: %+v", res)
	}
	var buf bytes.Buffer
	line := func(tag string, v any) {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "%s %s\n", tag, b)
	}
	fmt.Fprintf(&buf, "result %s\n", canonicalResult(t, res))
	line("io", res.IO)
	// Histograms carry no JSON form; pin the reconstructed counts.
	for _, m := range res.TopK {
		line("hist", m.Histogram.Counts())
	}
	for _, p := range frames {
		line("progress", p)
	}
	return buf.Bytes()
}

func TestGoldenSamplingSequences(t *testing.T) {
	// At 200,000 rows and 60 candidates the executors skip different
	// blocks, the seeds start at different blocks, and the walk wraps.
	tbl := testDataset(t, 200_000, 60, 8, 5)
	zc, err := tbl.Column("Z")
	if err != nil {
		t.Fatal(err)
	}
	e := New(tbl)
	for _, c := range goldenCases() {
		t.Run(c.name(), func(t *testing.T) {
			got := goldenRender(t, e, zc.Dict.Value(2), c)
			path := filepath.Join("testdata", "golden", c.name()+".golden")
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
				for i := 0; i < len(gl) || i < len(wl); i++ {
					var g, w string
					if i < len(gl) {
						g = gl[i]
					}
					if i < len(wl) {
						w = wl[i]
					}
					if g != w {
						t.Fatalf("%s differs at line %d:\n got %s\nwant %s", path, i+1, g, w)
					}
				}
			}
		})
	}
}
