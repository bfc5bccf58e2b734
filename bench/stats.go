package main

import (
	"math"
	"slices"
	"time"
)

// samples is a set of measurements in one unit (milliseconds for latencies).
type samples []float64

func (s *samples) addDur(d time.Duration) { *s = append(*s, float64(d)/float64(time.Millisecond)) }

// sorted returns an ascending copy.
func (s samples) sorted() []float64 {
	c := slices.Clone([]float64(s))
	slices.Sort(c)
	return c
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending slice: the smallest value with at least p% of the samples at or
// below it. Nearest-rank always returns a measured value, never an
// interpolation between two.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	rank = max(1, min(rank, len(sorted)))
	return sorted[rank-1]
}

// beyond is the number of samples strictly above the nearest-rank p-th
// percentile position: a percentile is reported as trustworthy when at least
// ten samples lie beyond it.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	return n - max(1, min(rank, n))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func median(xs []float64) float64 {
	c := samples(xs).sorted()
	n := len(c)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so spreads printed here match the acceptance arithmetic.
func quartiles(xs []float64) (q1, q3 float64) {
	d := samples(xs).sorted()
	ld := len(d)
	switch ld {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return d[0], d[0]
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := i*m - j*n
		return (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	med := median(xs)
	if med == 0 {
		if q3 == q1 {
			return 0
		}
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(med)
}
