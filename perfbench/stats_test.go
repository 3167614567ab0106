package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: the helpers must sort
	}
	return xs
}

// TestTailKeepsTenBeyond pins the rule for tail percentiles: report p99 when
// at least ten samples lie beyond it, otherwise the highest percentile that
// still has ten beyond, and the maximum when no percentile does.
func TestTailKeepsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n     int
		wantV float64
		wantQ float64
	}{
		{n: 2000, wantV: 1980, wantQ: 0.99}, // rank 1980: 20 beyond
		{n: 1000, wantV: 990, wantQ: 0.99},  // rank 990: exactly 10 beyond
		{n: 999, wantV: 989, wantQ: 989.0 / 999},
		{n: 100, wantV: 90, wantQ: 0.90},
		{n: 11, wantV: 1, wantQ: 1.0 / 11},
		{n: 10, wantV: 10, wantQ: 1}, // no percentile qualifies: the maximum
		{n: 1, wantV: 1, wantQ: 1},
	} {
		v, q := tail(seq(tc.n), 0.99)
		if v != tc.wantV || math.Abs(q-tc.wantQ) > 1e-12 {
			t.Errorf("n=%d: tail = %v at q=%v, want %v at q=%v", tc.n, v, q, tc.wantV, tc.wantQ)
		}
		if beyond := tc.n - int(v); tc.n > minBeyond && beyond < minBeyond {
			t.Errorf("n=%d: only %d samples beyond the reported tail", tc.n, beyond)
		}
	}
	if v, _ := tail(nil, 0.99); !math.IsNaN(v) {
		t.Errorf("tail of no samples = %v, want NaN", v)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(10)
	if got := median(xs); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	if got := percentile(xs, 1); got != 10 {
		t.Errorf("p100 = %v, want 10", got)
	}
	if got := percentile(xs, 0.01); got != 1 {
		t.Errorf("p1 = %v, want 1", got)
	}
	if xs[0] != 10 {
		t.Error("percentile reordered its input")
	}
}
