package main

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"
)

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	if got := minSamplesFor(0.95); got != 200 {
		t.Fatalf("minSamplesFor(0.95) = %d, want 200", got)
	}
	xs := make([]float64, 199)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := tailPercentile(xs, 0.95); err == nil || !strings.Contains(err.Error(), "9 beyond") {
		t.Fatalf("p95 over 199 samples: err = %v, want a refusal naming 9 beyond", err)
	}
	xs = append(xs, 200)
	got, err := tailPercentile(xs, 0.95)
	if err != nil {
		t.Fatalf("p95 over 200 samples: %v", err)
	}
	// Nearest rank: the 190th of 200 sorted values, with 10 beyond it.
	if got != 190 {
		t.Fatalf("p95 of 1..200 = %v, want 190", got)
	}
	if b := samplesBeyond(0.95, 200); b != 10 {
		t.Fatalf("samplesBeyond(0.95, 200) = %d, want 10", b)
	}
	// Input order must not matter.
	rev := make([]float64, len(xs))
	for i, x := range xs {
		rev[len(xs)-1-i] = x
	}
	if got2, _ := tailPercentile(rev, 0.95); got2 != got {
		t.Fatalf("p95 depends on input order: %v vs %v", got2, got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q3 = quartiles([]float64{4, 1, 2})
	if q1 != 1 || q3 != 4 {
		t.Fatalf("quartiles of 3 values = %v, %v, want 1, 4", q1, q3)
	}
	if s := relSpread(xs); math.Abs(s-(8.25-2.75)/5.5) > 1e-12 {
		t.Fatalf("relSpread = %v", s)
	}
}

// span builds a test span.
func sp(id, parent int64, start, end int64) span {
	return span{ID: id, Parent: parent, Op: 1, Name: "s", Source: "bench", Start: start, End: end}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		sp(1, 0, 0, 100),
		// Two workers overlapping on [20, 50): the union [10, 60) covers 50.
		sp(2, 1, 10, 50),
		sp(3, 1, 20, 60),
		// A child sticking out of its parent counts only inside it.
		sp(4, 1, 90, 130),
		// A grandchild never counts against the root.
		sp(5, 2, 15, 45),
	}
	self := selfTimes(spans)
	want := map[int64]int64{
		1: 100 - 50 - 10, // children cover [10, 60) and [90, 100)
		2: 40 - 30,
		3: 40,
		4: 40,
		5: 30,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	// Identical and nested children are counted once.
	if got := covered(0, 100, []interval{{10, 20}, {10, 20}, {12, 18}, {30, 40}}); got != 20 {
		t.Errorf("covered = %d, want 20", got)
	}
	if got := covered(0, 100, nil); got != 0 {
		t.Errorf("covered with no children = %d, want 0", got)
	}
}

// fakeClock advances only when told to or when slept past.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time { return c.now }

func (c *fakeClock) SleepUntil(_ context.Context, t time.Time) {
	if t.After(c.now) {
		c.now = t
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{now: start}
	interval := 10 * time.Millisecond
	// Op 1 stalls for 35ms; every other op takes 2ms.
	took := func(i int) time.Duration {
		if i == 1 {
			return 35 * time.Millisecond
		}
		return 2 * time.Millisecond
	}
	var lat []time.Duration
	var dues []time.Time
	late := openLoop(context.Background(), clk, start, interval, start.Add(60*time.Millisecond),
		func(i int, due time.Time) {
			dues = append(dues, due)
			clk.now = clk.now.Add(took(i))
			lat = append(lat, clk.Now().Sub(due))
		})
	if len(late) != 6 {
		t.Fatalf("sent %d ops before the deadline, want 6", len(late))
	}
	ms := time.Millisecond
	// Op 1 runs [10, 45); ops 2–4 were due at 20, 30, 40 and go out late,
	// back to back: their latency includes the wait the stall imposed.
	wantLate := []time.Duration{0, 0, 25 * ms, 17 * ms, 9 * ms, 1 * ms}
	wantLat := []time.Duration{2 * ms, 35 * ms, 27 * ms, 19 * ms, 11 * ms, 3 * ms}
	for i := range wantLate {
		if dues[i] != start.Add(time.Duration(i)*interval) {
			t.Errorf("op %d due at %v, want %v", i, dues[i].Sub(start), time.Duration(i)*interval)
		}
		if late[i] != wantLate[i] {
			t.Errorf("op %d lateness %v, want %v", i, late[i], wantLate[i])
		}
		if lat[i] != wantLat[i] {
			t.Errorf("op %d latency %v, want %v", i, lat[i], wantLat[i])
		}
	}
}

func TestOpenLoopStops(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{now: start}
	stop, cancel := context.WithCancel(context.Background())
	n := 0
	openLoop(stop, clk, start, time.Millisecond, start.Add(time.Hour), func(i int, _ time.Time) {
		n++
		if i == 4 {
			cancel()
		}
	})
	if n != 5 {
		t.Fatalf("ran %d ops, want 5 (stop after op 4 completes)", n)
	}
}

func TestCompareVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, d float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x + d
		}
		return out
	}
	pairs := func(a, b []float64) [][2]float64 {
		var out [][2]float64
		for i := range a {
			out = append(out, [2]float64{a[i], b[i]})
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, tc := range []struct {
		name   string
		a, b   []float64
		better string
		bound  float64
		want   string
	}{
		{"faster latency", base, shift(base, -10), "lower", 0.1, verdictImproved},
		{"same latency", base, base, "lower", 0.1, verdictNoWorse},
		{"slightly slower within bound", base, shift(base, 3), "lower", 0.1, verdictNoWorse},
		{"slower beyond bound", base, shift(base, 20), "lower", 0.1, verdictWorse},
		{"higher throughput is better", base, shift(base, 10), "higher", 0.1, verdictImproved},
		{"lower throughput beyond bound", base, shift(base, -20), "higher", 0.1, verdictWorse},
		{"spread wider than bound", base, noisy, "lower", 0.1, verdictUnresolved},
		{"wide spread but separated", noisy, shift(noisy, 200), "lower", 0.1, verdictWorse},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := compareSamples(tc.a, tc.b, pairs(tc.a, tc.b), tc.better, tc.bound)
			if c.Verdict != tc.want {
				t.Fatalf("verdict %q, want %q (%+v)", c.Verdict, tc.want, c)
			}
		})
	}
	// A win needs nine tenths of the pairs: 8 wins of 10 is not enough,
	// even with a large median gain.
	a := base
	b := shift(base, -10)
	b[0], b[1] = 200, 200
	if c := compareSamples(a, b, pairs(a, b), "lower", 0.1); c.Verdict == verdictImproved || c.Wins != 8 {
		t.Fatalf("8/10 wins: verdict %q wins %d", c.Verdict, c.Wins)
	}
}
