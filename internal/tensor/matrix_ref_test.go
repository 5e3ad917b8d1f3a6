package tensor

import (
	"math"
	"testing"

	"abdhfl/internal/rng"
)

// Reference implementations: the one-sample, one-accumulator loops the
// blocked kernels replaced, kept verbatim. They define the result — every
// kernel must reproduce them bit for bit, for every shape and batch length.

func refMatVec(dst Vector, m *Matrix, x Vector) {
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		s := 0.0
		for j, r := range row {
			s += r * x[j]
		}
		dst[i] = s
	}
}

func refMatTVec(dst Vector, m *Matrix, x Vector) {
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < m.Rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, r := range row {
			dst[j] += r * xi
		}
	}
}

func refAddOuter(m *Matrix, s float64, x, y Vector) {
	for i := 0; i < m.Rows; i++ {
		sx := s * x[i]
		if sx == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, yj := range y {
			row[j] += sx * yj
		}
	}
}

var (
	refRows    = []int{1, 2, 3, 5, 10, 33}
	refCols    = []int{1, 3, 7, 32, 65}
	refBatches = []int{1, 3, 4, 8, 32, 33}
)

func randMatrix(r *rng.RNG, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	copy(m.Data, randVec(r, rows*cols))
	return m
}

// randVecs returns n vectors; with sparse set, about half the entries are
// zero — the shape of a post-ReLU delta — and some of those zeros are -0.
func randVecs(r *rng.RNG, n, dim int, sparse bool) []Vector {
	vs := make([]Vector, n)
	for b := range vs {
		vs[b] = randVec(r, dim)
		if !sparse {
			continue
		}
		for i := range vs[b] {
			switch r.Intn(8) {
			case 0, 1, 2:
				vs[b][i] = 0
			case 3:
				vs[b][i] = math.Copysign(0, -1)
			}
		}
	}
	return vs
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestMatVecBatchMatchesReference(t *testing.T) {
	r := rng.New(101)
	for _, rows := range refRows {
		for _, cols := range refCols {
			m := randMatrix(r, rows, cols)
			for _, batch := range refBatches {
				xs := randVecs(r, batch, cols, true)
				got := randVecs(r, batch, rows, false) // stale contents must be overwritten
				MatVecBatch(got, m, xs)
				want, one := NewVector(rows), NewVector(rows)
				for b, x := range xs {
					refMatVec(want, m, x)
					if !sameBits(got[b], want) {
						t.Fatalf("%dx%d batch %d: MatVecBatch sample %d differs from the reference", rows, cols, batch, b)
					}
					if MatVec(one, m, x); !sameBits(one, want) {
						t.Fatalf("%dx%d: MatVec differs from the reference", rows, cols)
					}
				}
			}
		}
	}
}

func TestMatTVecMatchesReference(t *testing.T) {
	r := rng.New(102)
	for _, rows := range refRows {
		for _, cols := range refCols {
			m := randMatrix(r, rows, cols)
			for _, sparse := range []bool{false, true} {
				for _, x := range randVecs(r, 6, rows, sparse) {
					got, want := randVec(r, cols), NewVector(cols)
					MatTVec(got, m, x)
					refMatTVec(want, m, x)
					if !sameBits(got, want) {
						t.Fatalf("%dx%d sparse=%v: MatTVec differs from the reference", rows, cols, sparse)
					}
				}
			}
		}
	}
}

func TestAddOuterBatchMatchesReference(t *testing.T) {
	r := rng.New(103)
	for _, rows := range refRows {
		for _, cols := range refCols {
			for _, batch := range refBatches {
				for _, s := range []float64{1, -0.375, 0} {
					for _, sparse := range []bool{false, true} {
						got := randMatrix(r, rows, cols)
						got.Data[r.Intn(len(got.Data))] = math.Copysign(0, -1)
						want, one := got.Clone(), got.Clone()
						xs, ys := randVecs(r, batch, rows, sparse), randVecs(r, batch, cols, false)
						AddOuterBatch(got, s, xs, ys)
						for b := range xs {
							refAddOuter(want, s, xs[b], ys[b])
							AddOuter(one, s, xs[b], ys[b])
						}
						if !sameBits(got.Data, want.Data) {
							t.Fatalf("%dx%d batch %d s=%v sparse=%v: AddOuterBatch differs from the reference", rows, cols, batch, s, sparse)
						}
						if !sameBits(one.Data, want.Data) {
							t.Fatalf("%dx%d batch %d s=%v sparse=%v: AddOuter differs from the reference", rows, cols, batch, s, sparse)
						}
					}
				}
			}
		}
	}
}

// The goroutine fan-out of large shapes hands row ranges to the same loops.
func TestLargeShapeKernelsMatchReference(t *testing.T) {
	r := rng.New(104)
	const rows, cols, batch = 300, 400, 5
	m := randMatrix(r, rows, cols)
	xs := randVecs(r, batch, cols, false)
	got := randVecs(r, batch, rows, false)
	MatVecBatch(got, m, xs)
	want := NewVector(rows)
	for b, x := range xs {
		refMatVec(want, m, x)
		if !sameBits(got[b], want) {
			t.Fatalf("parallel MatVecBatch sample %d differs from the reference", b)
		}
	}
	g := randMatrix(r, rows, cols)
	ref := g.Clone()
	ds := randVecs(r, batch, rows, true)
	AddOuterBatch(g, 1, ds, xs)
	for b := range ds {
		refAddOuter(ref, 1, ds[b], xs[b])
	}
	if !sameBits(g.Data, ref.Data) {
		t.Fatal("parallel AddOuterBatch differs from the reference")
	}
}

// Zero coefficients are skipped, not added as ±0 terms: an accumulator's −0
// survives, and a zero coefficient keeps a non-finite operand out of the
// result — while a non-zero one lets it through, so the engines' AllFinite
// guards see exactly what they saw with the per-sample loops.
func TestZeroSkipSemantics(t *testing.T) {
	negZero, inf := math.Copysign(0, -1), math.Inf(1)

	// ±0 deltas leave every bit of m alone, −0 entries included.
	m := NewMatrix(3, 5)
	for i := range m.Data {
		m.Data[i] = negZero
	}
	m.Data[7] = 1.5
	before := m.Clone()
	zeros := []Vector{{0, negZero, 0}, {negZero, 0, negZero}, {0, 0, 0}, {negZero, negZero, 0}, {0, negZero, negZero}}
	AddOuterBatch(m, 1, zeros, randVecs(rng.New(1), len(zeros), 5, false))
	AddOuterBatch(m, 0, randVecs(rng.New(2), 5, 3, false), randVecs(rng.New(3), 5, 5, false))
	if !sameBits(m.Data, before.Data) {
		t.Fatalf("zero coefficients changed m: %v", m.Data)
	}

	// A non-finite activation reaches exactly the rows with a non-zero delta.
	for _, batch := range []int{1, 4, 5, 9} {
		g, ref := NewMatrix(4, 6), NewMatrix(4, 6)
		xs := randVecs(rng.New(4), batch, 4, false)
		ys := randVecs(rng.New(5), batch, 6, false)
		last := batch - 1
		xs[last][1], xs[last][2] = 0, negZero
		ys[last][3] = inf
		AddOuterBatch(g, 1, xs, ys)
		for b := range xs {
			refAddOuter(ref, 1, xs[b], ys[b])
		}
		if !sameBits(g.Data, ref.Data) {
			t.Fatalf("batch %d: non-finite activation handled differently from the reference", batch)
		}
		if AllFinite(Vector(g.Data)) || !math.IsInf(g.At(0, 3), 0) {
			t.Fatalf("batch %d: non-finite activation did not reach the gradient", batch)
		}
		if !AllFinite(g.Row(1)) || !AllFinite(g.Row(2)) {
			t.Fatalf("batch %d: a zero delta let a non-finite activation through", batch)
		}
	}

	// MatTVec: same rule on the weights' side, in and out of a 4-row block.
	for _, zeroRow := range []int{1, 4} {
		w := randMatrix(rng.New(6), 6, 5)
		w.Set(zeroRow, 2, inf)
		x := randVec(rng.New(7), 6)
		x[zeroRow] = negZero
		got, want := NewVector(5), NewVector(5)
		MatTVec(got, w, x)
		refMatTVec(want, w, x)
		if !sameBits(got, want) || !AllFinite(got) {
			t.Fatalf("row %d: zero weight let a non-finite entry through: %v", zeroRow, got)
		}
		x[zeroRow] = 0.25
		MatTVec(got, w, x)
		refMatTVec(want, w, x)
		if !sameBits(got, want) || AllFinite(got) {
			t.Fatalf("row %d: non-finite entry did not reach the result: %v", zeroRow, got)
		}
	}
}

// Batch-of-one entry points must not allocate on the small-shape path: their
// one-element batch slices stay on the stack.
func TestDenseKernelsAllocationFree(t *testing.T) {
	r := rng.New(105)
	m, g := randMatrix(r, 10, 32), NewMatrix(10, 32)
	x, d, back := randVec(r, 32), randVec(r, 10), NewVector(32)
	dst := NewVector(10)
	if n := testing.AllocsPerRun(50, func() {
		MatVec(dst, m, x)
		MatTVec(back, m, d)
		AddOuter(g, 1, d, x)
	}); n > 0 {
		t.Fatalf("MatVec+MatTVec+AddOuter allocate %.1f objects/op, want 0", n)
	}
}
func benchMatVecBatch(b *testing.B, rows, cols, batch int) {
	r := rng.New(1)
	m := NewMatrix(rows, cols)
	copy(m.Data, randVec(r, rows*cols))
	xs := randVecs(r, batch, cols, false)
	ds := randVecs(r, batch, rows, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatVecBatch(ds, m, xs)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows*cols*batch), "ns/MA")
}

func BenchmarkMatVecBatch32x64x8(b *testing.B) { benchMatVecBatch(b, 32, 64, 8) }
func BenchmarkMatVecBatch10x32x8(b *testing.B) { benchMatVecBatch(b, 10, 32, 8) }
func BenchmarkMatVecBatch32x64x1(b *testing.B) { benchMatVecBatch(b, 32, 64, 1) }
func BenchmarkMatVecBatch10x32x1(b *testing.B) { benchMatVecBatch(b, 10, 32, 1) }

func benchAddOuterBatch(b *testing.B, rows, cols, batch int, sparse bool) {
	r := rng.New(1)
	m := NewMatrix(rows, cols)
	xs := randVecs(r, batch, rows, sparse)
	ys := randVecs(r, batch, cols, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AddOuterBatch(m, 1, xs, ys)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/sample")
}

func BenchmarkAddOuterBatch32x64x8Sparse(b *testing.B) { benchAddOuterBatch(b, 32, 64, 8, true) }
func BenchmarkAddOuterBatch32x64x1Sparse(b *testing.B) { benchAddOuterBatch(b, 32, 64, 1, true) }
func BenchmarkAddOuterBatch10x32x8(b *testing.B)       { benchAddOuterBatch(b, 10, 32, 8, false) }
func BenchmarkAddOuterBatch10x32x1(b *testing.B)       { benchAddOuterBatch(b, 10, 32, 1, false) }

func BenchmarkMatTVec10x32(b *testing.B) {
	r := rng.New(1)
	m := NewMatrix(10, 32)
	copy(m.Data, randVec(r, 320))
	x, dst := randVec(r, 10), NewVector(32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatTVec(dst, m, x)
	}
}

func BenchmarkRefAddOuter32x64Sparse(b *testing.B) {
	r := rng.New(1)
	m := NewMatrix(32, 64)
	xs := randVecs(r, 1, 32, true)
	ys := randVecs(r, 1, 64, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		refAddOuter(m, 1, xs[0], ys[0])
	}
}
func BenchmarkRefAddOuter10x32(b *testing.B) {
	r := rng.New(1)
	m := NewMatrix(10, 32)
	xs := randVecs(r, 1, 10, false)
	ys := randVecs(r, 1, 32, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		refAddOuter(m, 1, xs[0], ys[0])
	}
}
