package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0..1) of sorted by linear
// interpolation between closest ranks. It returns 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// sortedCopy returns the samples scaled by mul, sorted ascending.
func sortedCopy(samples []int64, mul float64) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = float64(s) * mul
	}
	sort.Float64s(out)
	return out
}

// tailPercentiles are the candidates for "the highest percentile the
// sample supports".
var tailPercentiles = []float64{0.5, 0.95, 0.99, 0.999, 0.9999}

// highestSupported returns the highest candidate percentile with at least
// ten samples beyond it, or 0 when even the median has fewer.
func highestSupported(n int) float64 {
	best := 0.0
	for _, p := range tailPercentiles {
		if float64(n)*(1-p) >= 10 {
			best = p
		}
	}
	return best
}

// quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) gives (the "exclusive" method), which
// is what the acceptance procedure uses for run-to-run spread.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4 // 1-based rank
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (s[j]-s[j-1])*(pos-float64(j))
	}
	return cut(1), cut(2), cut(3)
}
