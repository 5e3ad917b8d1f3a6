package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values for
// an even count) without reordering xs; 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// tailPercentiles are the percentiles a tail may be reported at, highest
// first.
var tailPercentiles = []int{99, 95, 90, 75, 50}

// tailPercentile picks the highest percentile that leaves at least ten
// samples beyond it — p95 needs 200 samples, p99 a thousand — and returns it
// with its nearest-rank value. Below twenty samples nothing qualifies and the
// median is returned: a tail read off fewer than ten samples is one outlier.
func tailPercentile(xs []float64) (p, value float64) {
	if len(xs) == 0 {
		return 50, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pct := 50
	for _, c := range tailPercentiles {
		if len(s)*(100-c) >= 10*100 {
			pct = c
			break
		}
	}
	rank := (pct*len(s) + 99) / 100 // nearest rank: ceil(p/100 × n)
	return float64(pct), s[rank-1]
}

// spread is (max − min) ÷ median of xs: how far the windows of one
// measurement disagree. 0 when the median is 0.
func spread(xs []float64) float64 {
	med := median(xs)
	if len(xs) == 0 || med == 0 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return (hi - lo) / med
}

// ratio is a ÷ b, and 0 when b is 0, for shares whose base may be absent on
// a workload that does not use the layer.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
