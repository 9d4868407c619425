package main

import (
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{4}, 4},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// The expectations are Python's statistics.quantiles(xs, n=4), which
// the benchmark's acceptance check uses for run-to-run spreads.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1, 4, 2, 3, 9, 7}, [3]float64{2, 4, 7}},
	} {
		got, ok := quartiles(c.xs)
		if !ok || got != c.want {
			t.Errorf("quartiles(%v) = %v %v, want %v", c.xs, got, ok, c.want)
		}
	}
	if _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one sample should be unsupported")
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: tail must sort
		}
		return xs
	}
	if _, _, ok := tail(ramp(10)); ok {
		t.Error("10 samples cannot leave 10 beyond any percentile")
	}
	for _, c := range []struct {
		n, pct int
		v      float64
	}{
		{11, 9, 1},
		{100, 90, 90},
		{1000, 99, 990},
		{50000, 99, 49500},
	} {
		pct, v, ok := tail(ramp(c.n))
		if !ok || pct != c.pct || v != c.v {
			t.Errorf("tail of %d samples = p%d %v %v, want p%d %v", c.n, pct, v, ok, c.pct, c.v)
		}
		if beyond := c.n - int(v); beyond < 10 {
			t.Errorf("tail of %d samples leaves %d beyond", c.n, beyond)
		}
	}
}

func TestRateOverWallTime(t *testing.T) {
	if got := rate(30, 15*time.Second); got != 2 {
		t.Errorf("rate = %v, want 2", got)
	}
	if got := rate(5, 0); got != 0 {
		t.Errorf("rate over no time = %v, want 0", got)
	}
}
