package main

import (
	"math"
	"sort"
)

// tailPercentiles are the percentiles a tail may be reported at, highest
// first. A fixed list keeps the reported percentile identical across runs
// that take the same number of samples.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie above a percentile before it is
// trusted as a tail.
const minBeyond = 10

// beyond returns how many of n samples rank above the nearest-rank p-th
// percentile.
func beyond(n int, p float64) int {
	return n - nearestRank(n, p)
}

// nearestRank is the 1-based rank of the p-th percentile of n samples.
func nearestRank(n int, p float64) int {
	r := int(math.Ceil(float64(n) * p / 100))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tail picks the highest percentile in tailPercentiles with at least
// minBeyond samples above it and returns that percentile and its value.
// ok is false when even the median has too few samples above it.
func tail(vals []float64) (pct, v float64, ok bool) {
	s := sortedCopy(vals)
	for _, p := range tailPercentiles {
		if beyond(len(s), p) >= minBeyond {
			return p, s[nearestRank(len(s), p)-1], true
		}
	}
	return 0, 0, false
}

// tailOrMax is tail, falling back to the slowest sample, reported as the
// 100th percentile, when no percentile has ten samples beyond it. It is 0
// for no samples.
func tailOrMax(vals []float64) (pct, v float64) {
	if p, v, ok := tail(vals); ok {
		return p, v
	}
	if len(vals) == 0 {
		return 0, 0
	}
	return 100, sortedCopy(vals)[len(vals)-1]
}

// median returns the interpolated median, 0 for no samples.
func median(vals []float64) float64 {
	return quantile(sortedCopy(vals), 0.5)
}

// quantile interpolates linearly between closest ranks of sorted s.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func sortedCopy(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// ratio returns a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
