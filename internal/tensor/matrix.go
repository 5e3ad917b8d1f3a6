package tensor

import (
	"fmt"
	"runtime"
	"sync"
)

// Matrix is a dense row-major float64 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewMatrix returns a zero matrix of the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("tensor: negative matrix dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set stores x at row i, column j.
func (m *Matrix) Set(i, j int, x float64) { m.Data[i*m.Cols+j] = x }

// Row returns row i as a Vector sharing the matrix's storage.
func (m *Matrix) Row(i int) Vector { return Vector(m.Data[i*m.Cols : (i+1)*m.Cols]) }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero resets all elements to zero.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// parallelThreshold is the number of scalar multiplications per sample below
// which MatVec and friends stay single-threaded; goroutine fan-out only pays
// for itself on large shapes.
const parallelThreshold = 1 << 16

// parallelRows runs fn over [0, rows) split into one contiguous row range per
// GOMAXPROCS goroutine. Callers check parallelThreshold first and run small
// shapes inline: a closure handed to parallelRows escapes (goroutines capture
// it) and costs a heap allocation per call, which would defeat the
// allocation-free workspace contract of internal/nn.
func parallelRows(rows int, fn func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > rows {
		workers = rows
	}
	var wg sync.WaitGroup
	chunk := (rows + workers - 1) / workers
	for lo := 0; lo < rows; lo += chunk {
		hi := lo + chunk
		if hi > rows {
			hi = rows
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// The dense-layer kernels below are register-blocked: they keep several
// outputs in flight at once, across rows and across the samples of a
// minibatch tile. Blocking never changes a result bit, because the order of
// floating-point operations INTO EACH OUTPUT is fixed:
//
//   - MatVec/MatVecBatch: dsts[b][i] is one accumulator started at +0 and
//     summed j = 0 … Cols−1.
//   - AddOuter/AddOuterBatch: m[i][j] receives s·xs[b][i]·ys[b][j] for
//     b = 0 … len(xs)−1 in that order, terms with s·xs[b][i] == 0 skipped.
//   - MatTVec: dst[j] starts at +0 and receives m[i][j]·x[i] for
//     i = 0 … Rows−1 in that order, rows with x[i] == 0 skipped.
//
// Which outputs share a loop iteration — and therefore batch length, row
// range and worker count — is invisible in the result. The single-sample
// entry points are batch-of-one calls onto the same loops.

// MatVec stores m*x into dst and returns dst. dst must not alias x.
func MatVec(dst Vector, m *Matrix, x Vector) Vector {
	MatVecBatch([]Vector{dst}, m, []Vector{x})
	return dst
}

// MatVecBatch stores m*xs[b] into dsts[b] for every b. No dst may alias an
// input. Each output is bit-identical to MatVec's for any batch length.
func MatVecBatch(dsts []Vector, m *Matrix, xs []Vector) {
	if len(dsts) != len(xs) {
		panic("tensor: MatVecBatch batch length mismatch")
	}
	for b, x := range xs {
		if len(x) != m.Cols {
			panic(fmt.Sprintf("tensor: MatVec shape mismatch: %dx%d by %d", m.Rows, m.Cols, len(x)))
		}
		if len(dsts[b]) != m.Rows {
			panic("tensor: MatVec dst length mismatch")
		}
	}
	if m.Rows*m.Cols < parallelThreshold {
		matVecRows(dsts, m, xs, 0, m.Rows)
		return
	}
	// The goroutines get copies, so that the caller's slices do not escape
	// (and cost the small path an allocation) because of the large path.
	ds, vs := append([]Vector(nil), dsts...), append([]Vector(nil), xs...)
	parallelRows(m.Rows, func(lo, hi int) { matVecRows(ds, m, vs, lo, hi) })
}

// matVecRows is the forward kernel over rows [lo, hi): samples go four at a
// time while four remain, then one at a time. The two block shapes are
// separate functions so that each inner loop keeps its operands in registers.
func matVecRows(dsts []Vector, m *Matrix, xs []Vector, lo, hi int) {
	b := 0
	for ; b+4 <= len(xs); b += 4 {
		matVec4(dsts[b:b+4], m, xs[b:b+4], lo, hi)
	}
	for ; b < len(xs); b++ {
		matVec1(dsts[b], m, xs[b], lo, hi)
	}
}

// matVec4 computes rows [lo, hi) for four samples: each weight is loaded once
// and feeds one accumulator per sample.
func matVec4(dsts []Vector, m *Matrix, xs []Vector, lo, hi int) {
	n := m.Cols
	x0, x1, x2, x3 := xs[0][:n], xs[1][:n], xs[2][:n], xs[3][:n]
	d0, d1, d2, d3 := dsts[0], dsts[1], dsts[2], dsts[3]
	for i := lo; i < hi; i++ {
		var s0, s1, s2, s3 float64
		for j, w := range m.Data[i*n:][:n] {
			s0 += w * x0[j]
			s1 += w * x1[j]
			s2 += w * x2[j]
			s3 += w * x3[j]
		}
		d0[i], d1[i], d2[i], d3[i] = s0, s1, s2, s3
	}
}

// matVec1 computes rows [lo, hi) for one sample, four rows at a time so that
// four independent sums hide the add latency.
func matVec1(dst Vector, m *Matrix, x Vector, lo, hi int) {
	n := m.Cols
	x = x[:n]
	i := lo
	for ; i+4 <= hi; i += 4 {
		r0, r1, r2, r3 := m.Data[i*n:][:n], m.Data[(i+1)*n:][:n], m.Data[(i+2)*n:][:n], m.Data[(i+3)*n:][:n]
		var s0, s1, s2, s3 float64
		for j, a := range x {
			s0 += r0[j] * a
			s1 += r1[j] * a
			s2 += r2[j] * a
			s3 += r3[j] * a
		}
		dst[i], dst[i+1], dst[i+2], dst[i+3] = s0, s1, s2, s3
	}
	for ; i < hi; i++ {
		s := 0.0
		for j, w := range m.Data[i*n:][:n] {
			s += w * x[j]
		}
		dst[i] = s
	}
}

// MatTVec stores mᵀ*x into dst and returns dst (dst has length Cols). Four
// rows are folded per pass over dst, so each dst[j] is loaded and stored once
// per four rows; a block holding a zero weight falls back to row-at-a-time so
// that the skip (which keeps a non-finite m[i][j] out of dst when x[i] == 0)
// stays exact.
func MatTVec(dst Vector, m *Matrix, x Vector) Vector {
	if len(x) != m.Rows {
		panic("tensor: MatTVec shape mismatch")
	}
	if len(dst) != m.Cols {
		panic("tensor: MatTVec dst length mismatch")
	}
	for j := range dst {
		dst[j] = 0
	}
	rowByRow := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if x[i] != 0 {
				Axpy(dst, x[i], m.Row(i))
			}
		}
	}
	n := m.Cols
	dst = dst[:n]
	i := 0
	for ; i+4 <= m.Rows; i += 4 {
		x0, x1, x2, x3 := x[i], x[i+1], x[i+2], x[i+3]
		if x0 == 0 || x1 == 0 || x2 == 0 || x3 == 0 {
			rowByRow(i, i+4)
			continue
		}
		r0, r1 := m.Data[i*n:][:n], m.Data[(i+1)*n:][:n]
		r2, r3 := m.Data[(i+2)*n:][:n], m.Data[(i+3)*n:][:n]
		for j, t := range dst {
			t += r0[j] * x0
			t += r1[j] * x1
			t += r2[j] * x2
			t += r3[j] * x3
			dst[j] = t
		}
	}
	rowByRow(i, m.Rows)
	return dst
}

// AddOuter accumulates the outer product s * x yᵀ into m: m[i][j] += s*x[i]*y[j].
// It is the gradient accumulation kernel for dense layers.
func AddOuter(m *Matrix, s float64, x, y Vector) {
	AddOuterBatch(m, s, []Vector{x}, []Vector{y})
}

// AddOuterBatch accumulates s * xs[b] ys[b]ᵀ into m for b = 0 … len(xs)−1,
// bit-identical to that many AddOuter calls in order.
func AddOuterBatch(m *Matrix, s float64, xs, ys []Vector) {
	if len(xs) != len(ys) {
		panic("tensor: AddOuterBatch batch length mismatch")
	}
	for b, x := range xs {
		if len(x) != m.Rows || len(ys[b]) != m.Cols {
			panic("tensor: AddOuter shape mismatch")
		}
	}
	if m.Rows*m.Cols < parallelThreshold {
		addOuterRows(m, s, xs, ys, 0, m.Rows)
		return
	}
	us, vs := append([]Vector(nil), xs...), append([]Vector(nil), ys...)
	parallelRows(m.Rows, func(lo, hi int) { addOuterRows(m, s, us, vs, lo, hi) })
}

// addOuterRows is the weight-gradient kernel over rows [lo, hi). Per row it
// gathers the samples whose coefficient s·xs[b][i] is non-zero — after ReLU
// about half of a hidden layer's deltas are exactly zero — and folds them
// four at a time, so m[i][j] is loaded and stored once per four terms instead
// of once per term.
//
// Zero coefficients are SKIPPED, not added as ±0 terms. Adding them would be
// bit-identical only while the accumulator is never −0 and every ys[b][j] is
// finite; skipping is exact for every input (a −0 in m survives, 0·Inf never
// manufactures a NaN), costs one compare per coefficient, and halves the
// multiply-adds on ReLU-sparse deltas.
func addOuterRows(m *Matrix, s float64, xs, ys []Vector, lo, hi int) {
	for len(xs) > gather {
		addOuterRows(m, s, xs[:gather], ys[:gather], lo, hi)
		xs, ys = xs[gather:], ys[gather:]
	}
	n := m.Cols
	var c [gather]float64
	var y [gather]Vector
	for i := lo; i < hi; i++ {
		// The slot is written before the test and kept only for a non-zero
		// coefficient, which compiles to a conditional increment rather than
		// a branch on ReLU's coin-flip zeros.
		k := 0
		for b, x := range xs {
			sx := s * x[i]
			c[k], y[k] = sx, ys[b]
			if sx != 0 {
				k++
			}
		}
		if k > 0 {
			addScaled(m.Data[i*n:][:n], c[:k], y[:k])
		}
	}
}

// gather is how many samples addOuterRows looks at per row before folding.
const gather = 8

// addScaled adds c[0]·y[0], c[1]·y[1], … to row, in that order per element,
// holding each element in a register across up to four terms.
func addScaled(row []float64, c []float64, y []Vector) {
	n := len(row)
	for ; len(c) >= 4; c, y = c[4:], y[4:] {
		c0, c1, c2, c3, y0, y1, y2, y3 := c[0], c[1], c[2], c[3], y[0][:n], y[1][:n], y[2][:n], y[3][:n]
		for j, t := range row {
			t += c0 * y0[j]
			t += c1 * y1[j]
			t += c2 * y2[j]
			t += c3 * y3[j]
			row[j] = t
		}
	}
	switch len(c) {
	case 1:
		c0, y0 := c[0], y[0][:n]
		for j, t := range row {
			row[j] = t + c0*y0[j]
		}
	case 2:
		c0, c1, y0, y1 := c[0], c[1], y[0][:n], y[1][:n]
		for j, t := range row {
			t += c0 * y0[j]
			t += c1 * y1[j]
			row[j] = t
		}
	case 3:
		c0, c1, c2, y0, y1, y2 := c[0], c[1], c[2], y[0][:n], y[1][:n], y[2][:n]
		for j, t := range row {
			t += c0 * y0[j]
			t += c1 * y1[j]
			t += c2 * y2[j]
			row[j] = t
		}
	}
}
