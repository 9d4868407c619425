package main

import (
	"math"
	"sort"
	"time"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle sample, or the mean of the two middle
// samples for an even count; 0 for no samples.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the three cut points that split xs into quarters,
// computed as Python's statistics.quantiles(xs, n=4) does (its default
// "exclusive" method), so spreads printed here match the ones the
// benchmark's acceptance check computes. It needs at least two samples.
func quartiles(xs []float64) (q [3]float64, ok bool) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		return q, false
	}
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q, true
}

// tail returns the highest whole percentile, capped at 99, that leaves
// at least ten samples above it, with its nearest-rank value. Fewer
// than eleven samples support no tail.
func tail(xs []float64) (pct int, v float64, ok bool) {
	n := len(xs)
	if n < 11 {
		return 0, 0, false
	}
	pct = 100 * (n - 10) / n
	if pct > 99 {
		pct = 99
	}
	rank := int(math.Ceil(float64(pct) * float64(n) / 100))
	if rank < 1 {
		rank = 1
	}
	return pct, sorted(xs)[rank-1], true
}

// rate returns events per second of wall time.
func rate(events int, wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	return float64(events) / wall.Seconds()
}
