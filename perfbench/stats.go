package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie above a reported percentile's rank:
// a percentile resting on fewer is one or two outliers, not a distribution.
// It is why p90 needs at least 100 samples.
const minTail = 10

// percentile returns the nearest-rank pct-th percentile of xs (the smallest
// sample with at least pct% of all samples at or below it), refusing a rank
// that leaves fewer than minTail samples above it. xs need not be sorted.
func percentile(xs []float64, pct int) (float64, error) {
	n := len(xs)
	if pct < 1 || pct > 100 {
		return 0, fmt.Errorf("percentile %d out of range [1,100]", pct)
	}
	rank := (pct*n + 99) / 100 // ceil(pct/100 * n), 1-based, in integers
	if n == 0 || n-rank < minTail {
		return 0, fmt.Errorf("p%d needs at least %d samples above its rank; %d samples leave %d",
			pct, minTail, n, n-rank)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return sorted[rank-1], nil
}

// median is the middle value (mean of the two middle values for even
// lengths); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	m := len(sorted) / 2
	if len(sorted)%2 == 1 {
		return sorted[m]
	}
	return (sorted[m-1] + sorted[m]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// relClose compares two recomputed objective values with a relative
// tolerance: the server and the verifier sum the same terms, but not
// necessarily in the same order.
func relClose(a, b float64) bool {
	const tol = 1e-9
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}
