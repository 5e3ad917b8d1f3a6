package tensor

import "sort"

// Median returns the coordinate median of a copy of xs (the input is not
// modified). For an even count it returns the mean of the two middle values.
// It panics on an empty slice.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		panic("tensor: Median of empty slice")
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// TrimmedMean returns the mean of xs after removing the trim smallest and
// trim largest values. It panics if 2*trim >= len(xs).
func TrimmedMean(xs []float64, trim int) float64 {
	n := len(xs)
	if trim < 0 || 2*trim >= n {
		panic("tensor: TrimmedMean trim out of range")
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	s := 0.0
	for _, x := range c[trim : n-trim] {
		s += x
	}
	return s / float64(n-2*trim)
}

// CoordinateMedian stores the per-coordinate median of vs into dst and
// returns dst. It is the Median aggregation rule of Yin et al.
func CoordinateMedian(dst Vector, vs []Vector) Vector {
	if len(vs) == 0 {
		panic("tensor: CoordinateMedian of empty set")
	}
	assertSameLen(dst, vs[0])
	col := make([]float64, len(vs))
	for j := range dst {
		for k, v := range vs {
			col[k] = v[j]
		}
		dst[j] = Median(col)
	}
	return dst
}

// CoordinateTrimmedMean stores the per-coordinate trimmed mean of vs into
// dst, trimming the trim extreme values at each end per coordinate.
func CoordinateTrimmedMean(dst Vector, vs []Vector, trim int) Vector {
	if len(vs) == 0 {
		panic("tensor: CoordinateTrimmedMean of empty set")
	}
	assertSameLen(dst, vs[0])
	col := make([]float64, len(vs))
	for j := range dst {
		for k, v := range vs {
			col[k] = v[j]
		}
		dst[j] = TrimmedMean(col, trim)
	}
	return dst
}

// GeometricMedian computes the geometric median of vs by Weiszfeld's
// iteration, stopping when the iterate moves less than tol or after maxIter
// iterations. The result is stored in dst.
func GeometricMedian(dst Vector, vs []Vector, tol float64, maxIter int) Vector {
	if len(vs) == 0 {
		panic("tensor: GeometricMedian of empty set")
	}
	assertSameLen(dst, vs[0])
	// Start from the coordinate mean.
	Mean(dst, vs)
	next := NewVector(len(dst))
	for iter := 0; iter < maxIter; iter++ {
		Fill(next, 0)
		wsum := 0.0
		for _, v := range vs {
			d := Distance(dst, v)
			if d < 1e-12 {
				// Iterate sits on a sample point; Weiszfeld's weight would
				// blow up. The sample itself is a valid geometric median
				// candidate when it dominates; nudging by epsilon keeps the
				// iteration stable.
				d = 1e-12
			}
			w := 1 / d
			Axpy(next, w, v)
			wsum += w
		}
		Scale(next, 1/wsum, next)
		moved := Distance(dst, next)
		copy(dst, next)
		if moved < tol {
			break
		}
	}
	return dst
}
