package main

import (
	"math"
	"sort"
)

// minTail is the number of samples that must lie beyond a reported tail
// percentile for it to mean anything.
const minTail = 10

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of the
// samples, which it sorts in place. It returns 0 for an empty slice.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Float64s(samples)
	return samples[rank(len(samples), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile among n samples.
func rank(n int, p float64) int {
	// The epsilon keeps a rank that is a whole number in exact arithmetic
	// (99.9% of 10000) from rounding up.
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return min(max(r, 1), n)
}

// beyond is the number of samples ranked above the nearest-rank p-th
// percentile of n samples.
func beyond(n int, p float64) int { return n - rank(n, p) }

// tailPercentiles are the percentiles a tail figure is chosen from, highest
// first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest of tailPercentiles with at least
// minTail samples beyond it among n samples, or 0 when even the median has
// fewer (the sample is too small for any tail figure).
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if beyond(n, p) >= minTail {
			return p
		}
	}
	return 0
}

// median is percentile 50 on a copy, leaving the caller's order alone.
func median(samples []float64) float64 {
	return percentile(append([]float64(nil), samples...), 50)
}

// mean returns the arithmetic mean, or 0 for an empty slice.
func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range samples {
		s += v
	}
	return s / float64(len(samples))
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// sum returns the sum of the samples.
func sum(samples []float64) float64 {
	s := 0.0
	for _, v := range samples {
		s += v
	}
	return s
}
