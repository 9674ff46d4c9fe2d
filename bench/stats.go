package main

import (
	"math"
	"sort"
)

// minBeyond is the least number of samples that must lie beyond a
// reported percentile: with fewer the figure is an order statistic of a
// handful of outliers, not a tail estimate.
const minBeyond = 10

// median returns the middle of v (mean of the two middles for even n); 0
// for empty input. v is not modified.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// percentile picks the p-th percentile (0 < p < 100) of v by nearest rank
// (the ceil(n*p/100)-th smallest sample).
// ok is false when fewer than minBeyond samples lie beyond the pick — the
// caller may still print the value, but must flag it as indicative only.
func percentile(v []float64, p float64) (val float64, ok bool) {
	if len(v) == 0 {
		return 0, false
	}
	s := sortedCopy(v)
	n := len(s)
	i := int(math.Ceil(float64(n)*p/100)) - 1
	if i < 0 {
		i = 0
	}
	return s[i], n-1-i >= minBeyond
}

// quartileSpread is the distance between the first and third quartile of
// v as a share of its median, with the quartiles computed as Python's
// statistics.quantiles(v, n=4) does (exclusive method) — the measure the
// benchmark contract uses for run-to-run spread. 0 for fewer than 2
// samples or a zero median.
func quartileSpread(v []float64) float64 {
	n := len(v)
	med := median(v)
	if n < 2 || med == 0 {
		return 0
	}
	s := sortedCopy(v)
	q := func(k int) float64 { // k-th of 4 cut points, exclusive method
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return math.Abs((q(3) - q(1)) / med)
}
