package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); !near(got, tc.want) {
			t.Errorf("median(%v) = %g, want %g", tc.xs, got, tc.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

// The expected cut points are what Python's statistics.quantiles(xs,
// n=4) returns for the same data.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{10, 1, 4, 7, 2}, 1.5, 4, 8.5},
		{[]float64{2, 2, 2, 2}, 2, 2, 2},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if !near(q1, tc.q1) || !near(q2, tc.q2) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestSpread(t *testing.T) {
	// Quartiles 2.75 and 8.25 around a median of 5.5.
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := spread(xs); !near(got, 1) {
		t.Errorf("spread = %g, want 1", got)
	}
	if got := spread([]float64{4, 4, 4}); got != 0 {
		t.Errorf("spread of equal values = %g, want 0", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, tc := range []struct{ p, want float64 }{{0.5, 50}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(%g) = %g, want %g", tc.p, got, tc.want)
		}
	}
}
