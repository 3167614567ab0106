package main

import (
	"math"
	"sort"
	"strconv"
	"time"
)

// minBeyond is how many samples must lie beyond a reported tail percentile:
// a p99 of 50 samples is the second-largest sample, not a percentile.
const minBeyond = 10

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank p-quantile (0 < p <= 1) of xs; NaN when xs
// is empty.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest rank of the p-quantile of n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// tail is the p-quantile of xs lowered, when there are too few samples, to the
// highest percentile that still has minBeyond samples beyond it. With
// minBeyond or fewer samples no percentile qualifies and the maximum is
// returned. q is the quantile actually reported.
func tail(xs []float64, p float64) (v, q float64) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), p
	}
	s := sortedCopy(xs)
	r := rank(n, p)
	if n-r < minBeyond {
		r = n - minBeyond
	}
	if r < 1 {
		r = n
	}
	return s[r-1], float64(r) / float64(n)
}

// pctName names a quantile for labels: 0.99 -> "p99", 0.881 -> "p88.1".
func pctName(q float64) string {
	return "p" + strconv.FormatFloat(math.Round(q*1000)/10, 'f', -1, 64)
}

// durationsIn converts durations to float64 values in the given unit.
func durationsIn(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
