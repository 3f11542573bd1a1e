package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile: a p95 over fewer than 200 samples rests on fewer than ten
// observations and is not reported.
const minBeyond = 10

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the middle value of xs (mean of the two middle values
// for an even count), or NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs, or NaN for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// nearestRank returns the 1-based nearest-rank position of percentile p
// (0 < p < 1) among n samples.
func nearestRank(p float64, n int) int {
	r := int(math.Ceil(p*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// samplesBeyond is how many of n samples lie strictly beyond the
// nearest-rank percentile p.
func samplesBeyond(p float64, n int) int {
	if n == 0 {
		return 0
	}
	return n - nearestRank(p, n)
}

// minSamplesFor is the smallest sample count that leaves at least
// minBeyond samples beyond percentile p.
func minSamplesFor(p float64) int {
	n := 1
	for samplesBeyond(p, n) < minBeyond {
		n++
	}
	return n
}

// tailPercentile returns the nearest-rank percentile p of xs, refusing
// (with an error) when fewer than minBeyond samples lie beyond it.
func tailPercentile(xs []float64, p float64) (float64, error) {
	if b := samplesBeyond(p, len(xs)); b < minBeyond {
		return 0, fmt.Errorf("p%g over %d samples leaves %d beyond it, want at least %d (need %d samples)",
			p*100, len(xs), b, minBeyond, minSamplesFor(p))
	}
	s := sortedCopy(xs)
	return s[nearestRank(p, len(s))-1], nil
}

// quartiles returns the first and third quartiles of xs by the method
// Python's statistics.quantiles(xs, n=4) uses (the default "exclusive"
// method), so spreads computed here match ones computed from the same
// values in Python. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	if ld == 0 {
		return math.NaN(), math.NaN()
	}
	if ld == 1 {
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// relSpread is the interquartile distance of xs as a share of its
// median: the run-to-run noise figure the bounds are compared with.
func relSpread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	med := median(xs)
	if med == 0 {
		if q3 == q1 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(q3-q1) / math.Abs(med)
}
