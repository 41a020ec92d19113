package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		median float64
	}{
		{nil, 0},
		{[]float64{4}, 4},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{10, 1, 1, 1}, 1},
	} {
		if got := median(c.xs); !near(got, c.median) {
			t.Errorf("median(%v) = %g, want %g", c.xs, got, c.median)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) returns for the same samples.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{4, 3, 2, 1}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{2, 1}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3.1, 9.5, 2.2, 7.0, 5.5, 4.4, 8.8}, [3]float64{3.1, 5.5, 8.8}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.want[0]) || !near(q2, c.want[1]) || !near(q3, c.want[2]) {
			t.Errorf("quartiles(%v) = %g %g %g, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := spread(xs), (8.25-2.75)/5.5; !near(got, want) {
		t.Errorf("spread = %g, want %g", got, want)
	}
	if got := spread([]float64{0, 0, 0}); got != 0 {
		t.Errorf("spread of zeros = %g, want 0", got)
	}
}

func TestTail(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending, to exercise the sort
		}
		return xs
	}
	if _, _, ok := tail(seq(19), true); ok {
		t.Error("19 samples: want no percentile with ten samples beyond it")
	}
	if p, v, ok := tail(seq(20), true); !ok || p != 50 || v != 10 {
		t.Errorf("20 samples, lower is better: got p%g = %g (%v), want p50 = 10", p, v, ok)
	}
	if p, v, ok := tail(seq(100), true); !ok || p != 90 || v != 90 {
		t.Errorf("100 samples, lower is better: got p%g = %g (%v), want p90 = 90", p, v, ok)
	}
	// For higher-is-better metrics the worse tail is the low one: ten
	// samples lie below the reported value.
	if p, v, ok := tail(seq(100), false); !ok || p != 90 || v != 11 {
		t.Errorf("100 samples, higher is better: got p%g = %g (%v), want p90 = 11", p, v, ok)
	}
}
