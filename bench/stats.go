package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs, or the mean of the two middle
// values for an even count (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first quartile, median and third quartile of xs
// with the same interpolation as Python's statistics.quantiles(xs, n=4)
// (its default "exclusive" method), so spreads computed here match the
// ones a Python consumer computes from the same samples.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// spread returns the interquartile range of xs as a share of its median
// (0 when the median is 0).
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}

// tailPercentiles are the candidate percentiles tail reports, highest
// first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tail returns the highest percentile of xs that has at least ten samples
// beyond it, on the worse side of the metric (the high side when lower is
// better), with its nearest-rank value. ok is false when even the median
// has fewer than ten samples beyond it.
func tail(xs []float64, lowerIsBetter bool) (pct, value float64, ok bool) {
	s := sorted(xs)
	n := len(s)
	for _, p := range tailPercentiles {
		beyond := int(math.Floor(float64(n)*(100-p)/100 + 1e-9))
		if beyond < 10 {
			continue
		}
		rank := n - beyond // 1-based rank of the percentile sample
		if lowerIsBetter {
			return p, s[rank-1], true
		}
		return p, s[beyond], true
	}
	return 0, 0, false
}
