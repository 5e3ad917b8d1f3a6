// Package tensor implements the dense linear-algebra kernels used by the
// neural-network substrate and the robust-aggregation rules: float64 vectors
// and row-major matrices with the handful of BLAS-1/2 operations federated
// averaging and SGD need, plus pairwise-distance helpers for Krum-style
// aggregators. Matrix products can split work across goroutines for large
// shapes.
package tensor

import (
	"fmt"
	"math"
)

// Vector is a dense float64 vector. Functions in this package treat vectors
// of differing lengths as a programming error and panic, mirroring the Go
// runtime's bounds checks: silently truncating parameter vectors would
// corrupt model aggregation.
type Vector []float64

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	c := make(Vector, len(v))
	copy(c, v)
	return c
}

func assertSameLen(a, b Vector) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: length mismatch %d vs %d", len(a), len(b)))
	}
}

// Add stores a+b into dst and returns dst. dst may alias a or b.
func Add(dst, a, b Vector) Vector {
	assertSameLen(a, b)
	assertSameLen(dst, a)
	for i := range a {
		dst[i] = a[i] + b[i]
	}
	return dst
}

// Sub stores a-b into dst and returns dst. dst may alias a or b.
func Sub(dst, a, b Vector) Vector {
	assertSameLen(a, b)
	assertSameLen(dst, a)
	for i := range a {
		dst[i] = a[i] - b[i]
	}
	return dst
}

// Scale stores s*a into dst and returns dst. dst may alias a.
func Scale(dst Vector, s float64, a Vector) Vector {
	assertSameLen(dst, a)
	for i := range a {
		dst[i] = s * a[i]
	}
	return dst
}

// Axpy computes dst += s*a in place and returns dst.
func Axpy(dst Vector, s float64, a Vector) Vector {
	assertSameLen(dst, a)
	for i := range a {
		dst[i] += s * a[i]
	}
	return dst
}

// Lerp stores (1-t)*a + t*b into dst and returns dst. It is the linear
// local-global model combiner of ABD-HFL Eq. (1) with t as the correction
// factor applied to the global model.
func Lerp(dst, a, b Vector, t float64) Vector {
	assertSameLen(a, b)
	assertSameLen(dst, a)
	for i := range a {
		dst[i] = (1-t)*a[i] + t*b[i]
	}
	return dst
}

// Dot returns the inner product of a and b.
func Dot(a, b Vector) float64 {
	assertSameLen(a, b)
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v Vector) float64 { return math.Sqrt(Dot(v, v)) }

// SquaredDistance returns ||a-b||^2 without allocating.
func SquaredDistance(a, b Vector) float64 {
	assertSameLen(a, b)
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// Distance returns the Euclidean distance ||a-b||.
func Distance(a, b Vector) float64 { return math.Sqrt(SquaredDistance(a, b)) }

// CosineSimilarity returns the cosine of the angle between a and b, or 0 if
// either vector is zero.
func CosineSimilarity(a, b Vector) float64 {
	na, nb := Norm2(a), Norm2(b)
	if na == 0 || nb == 0 {
		return 0
	}
	return Dot(a, b) / (na * nb)
}

// Mean stores the arithmetic mean of vs into dst and returns dst. It panics
// if vs is empty.
func Mean(dst Vector, vs []Vector) Vector {
	if len(vs) == 0 {
		panic("tensor: Mean of empty set")
	}
	assertSameLen(dst, vs[0])
	for i := range dst {
		dst[i] = 0
	}
	for _, v := range vs {
		Axpy(dst, 1, v)
	}
	return Scale(dst, 1/float64(len(vs)), dst)
}

// ArgMax returns the index of the largest element of v (first on ties). It
// panics on an empty vector.
func ArgMax(v Vector) int {
	if len(v) == 0 {
		panic("tensor: ArgMax of empty vector")
	}
	best := 0
	for i := 1; i < len(v); i++ {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}

// Clip limits the Euclidean norm of v in place to at most c and returns v.
// It is the clipping primitive of Centered Clipping aggregation.
func Clip(v Vector, c float64) Vector {
	n := Norm2(v)
	if n > c && n > 0 {
		Scale(v, c/n, v)
	}
	return v
}

// Fill sets every element of v to x and returns v.
func Fill(v Vector, x float64) Vector {
	for i := range v {
		v[i] = x
	}
	return v
}

// AllFinite reports whether every element of v is a finite number. x-x is 0
// for a finite x and NaN for NaN and ±Inf, and a sum that has met one NaN
// stays NaN, so the pass carries no branch per element.
func AllFinite(v Vector) bool {
	var a0, a1, a2, a3 float64
	i := 0
	for ; i+4 <= len(v); i += 4 {
		a0 += v[i] - v[i]
		a1 += v[i+1] - v[i+1]
		a2 += v[i+2] - v[i+2]
		a3 += v[i+3] - v[i+3]
	}
	for ; i < len(v); i++ {
		a0 += v[i] - v[i]
	}
	return a0+a1+a2+a3 == 0
}

// PairwiseSquaredDistances returns the n×n symmetric matrix of squared
// Euclidean distances between the given vectors. It is the O(n^2 d) kernel
// underlying Krum and clustering aggregators; for large populations the rows
// are computed across goroutines.
func PairwiseSquaredDistances(vs []Vector) [][]float64 {
	n := len(vs)
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
	}
	dim := 0
	if n > 0 {
		dim = len(vs[0])
	}
	fill := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for j := i + 1; j < n; j++ {
				dist := SquaredDistance(vs[i], vs[j])
				d[i][j] = dist
				d[j][i] = dist
			}
		}
	}
	// Work per row i is (n-1-i)*dim; parallelise only when the total pays
	// for the goroutine fan-out. Rows write disjoint cells, so no locking.
	if n*n*dim/2 < parallelPairwiseThreshold {
		fill(0, n)
	} else {
		parallelRows(n, fill)
	}
	return d
}

// parallelPairwiseThreshold is the scalar-op count above which the pairwise
// kernel fans out across goroutines.
const parallelPairwiseThreshold = 1 << 20
