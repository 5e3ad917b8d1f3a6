package tensor

import "slices"

// selectInsertionThreshold is the segment length at or below which SelectKth
// finishes with an insertion sort instead of partitioning further.
const selectInsertionThreshold = 12

// SelectKth partially sorts xs in place so that xs[k] holds its k-th order
// statistic (0-based): afterwards every element of xs[:k] is <= xs[k] and
// every element of xs[k+1:] is >= xs[k]. It runs in expected O(n) via
// quickselect with a median-of-three pivot and is fully deterministic for a
// given input. xs must not contain NaNs. It panics if k is out of range.
func SelectKth(xs []float64, k int) float64 {
	if k < 0 || k >= len(xs) {
		panic("tensor: SelectKth index out of range")
	}
	lo, hi := 0, len(xs)-1
	for hi-lo >= selectInsertionThreshold {
		medianOfThreeToLo(xs, lo, hi)
		// Hoare partition around the pivot value now at xs[lo]: on exit every
		// element of xs[lo:j+1] is <= every element of xs[j+1:hi+1], with
		// lo <= j < hi, so the search range always shrinks.
		p := xs[lo]
		i, j := lo-1, hi+1
		for {
			for {
				i++
				if xs[i] >= p {
					break
				}
			}
			for {
				j--
				if xs[j] <= p {
					break
				}
			}
			if i >= j {
				break
			}
			xs[i], xs[j] = xs[j], xs[i]
		}
		if k <= j {
			hi = j
		} else {
			lo = j + 1
		}
	}
	insertionSort(xs[lo : hi+1])
	return xs[k]
}

// medianOfThreeToLo moves the median of xs[lo], xs[mid], xs[hi] into xs[lo].
func medianOfThreeToLo(xs []float64, lo, hi int) {
	mid := lo + (hi-lo)/2
	if xs[mid] < xs[lo] {
		xs[mid], xs[lo] = xs[lo], xs[mid]
	}
	if xs[hi] < xs[lo] {
		xs[hi], xs[lo] = xs[lo], xs[hi]
	}
	if xs[hi] < xs[mid] {
		xs[hi], xs[mid] = xs[mid], xs[hi]
	}
	xs[lo], xs[mid] = xs[mid], xs[lo]
}

func insertionSort(xs []float64) {
	for i := 1; i < len(xs); i++ {
		x := xs[i]
		j := i - 1
		for j >= 0 && xs[j] > x {
			xs[j+1] = xs[j]
			j--
		}
		xs[j+1] = x
	}
}

// MedianInPlace returns the median of xs, permuting xs in the process. The
// returned value is bit-identical to Median: the middle order statistic for
// odd counts, the mean of the two middle order statistics for even counts.
// It panics on an empty slice.
func MedianInPlace(xs []float64) float64 {
	med, _, _ := medianKept(xs)
	return med
}

// medianKept is MedianInPlace that also returns the order statistics the
// median was formed from — ranks (n-1)/2 and n/2, one value twice for odd
// counts — which bound the value range a coordinate median keeps.
func medianKept(xs []float64) (med, lo, hi float64) {
	n := len(xs)
	if n == 0 {
		panic("tensor: MedianInPlace of empty slice")
	}
	hi = SelectKth(xs, n/2)
	if n%2 == 1 {
		return hi, hi, hi
	}
	// SelectKth left the n/2 smallest values in xs[:n/2]; the lower middle is
	// their maximum.
	lo = xs[0]
	for _, x := range xs[1 : n/2] {
		if x > lo {
			lo = x
		}
	}
	return (lo + hi) / 2, lo, hi
}

// TrimmedMeanInPlace returns the mean of xs after discarding the trim
// smallest and trim largest values, permuting xs in the process. The middle
// values are summed in ascending order, so the result is bit-identical to
// TrimmedMean. It panics if 2*trim >= len(xs).
func TrimmedMeanInPlace(xs []float64, trim int) float64 {
	mean, _, _ := trimmedMeanKept(xs, trim)
	return mean
}

// trimmedMeanKept is TrimmedMeanInPlace that also returns the least and the
// greatest value it kept: the order statistics of rank trim and n-1-trim.
func trimmedMeanKept(xs []float64, trim int) (mean, lo, hi float64) {
	n := len(xs)
	if trim < 0 || 2*trim >= n {
		panic("tensor: TrimmedMeanInPlace trim out of range")
	}
	if trim > 0 {
		// Split off the trim smallest, then the trim largest of the rest.
		SelectKth(xs, trim-1)
		SelectKth(xs[trim:], n-2*trim-1)
	}
	mid := xs[trim : n-trim]
	slices.Sort(mid)
	s := 0.0
	for _, x := range mid {
		s += x
	}
	return s / float64(n-2*trim), mid[0], mid[len(mid)-1]
}
