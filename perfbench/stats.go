package main

import (
	"math"
	"sort"
)

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of
// ascending samples: the smallest sample with at least p% of the
// samples at or below it. +Inf samples (failed requests) rank last.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// beyond counts the samples strictly above the nearest-rank p-th
// percentile's rank: how many samples the percentile rests on.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
