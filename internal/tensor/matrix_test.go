package tensor

import (
	"testing"

	"abdhfl/internal/rng"
)

func TestMatVecSmall(t *testing.T) {
	m := NewMatrix(2, 3)
	copy(m.Data, []float64{1, 2, 3, 4, 5, 6})
	dst := NewVector(2)
	MatVec(dst, m, Vector{1, 1, 1})
	if !vecAlmostEq(dst, Vector{6, 15}, 1e-12) {
		t.Fatalf("MatVec = %v", dst)
	}
}

func TestMatTVecSmall(t *testing.T) {
	m := NewMatrix(2, 3)
	copy(m.Data, []float64{1, 2, 3, 4, 5, 6})
	dst := NewVector(3)
	MatTVec(dst, m, Vector{1, 2})
	if !vecAlmostEq(dst, Vector{9, 12, 15}, 1e-12) {
		t.Fatalf("MatTVec = %v", dst)
	}
}

func TestMatVecLargeMatchesSerial(t *testing.T) {
	// Exercise the goroutine-parallel path and compare against a serial
	// reference computation.
	r := rng.New(4)
	const rows, cols = 300, 400
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = r.NormFloat64()
	}
	x := randVec(r, cols)
	got := MatVec(NewVector(rows), m, x)
	want := NewVector(rows)
	for i := 0; i < rows; i++ {
		s := 0.0
		for j := 0; j < cols; j++ {
			s += m.At(i, j) * x[j]
		}
		want[i] = s
	}
	if !vecAlmostEq(got, want, 1e-9) {
		t.Fatal("parallel MatVec differs from serial reference")
	}
}

func TestAddOuter(t *testing.T) {
	m := NewMatrix(2, 2)
	AddOuter(m, 2, Vector{1, 3}, Vector{5, 7})
	want := []float64{10, 14, 30, 42}
	for i, w := range want {
		if m.Data[i] != w {
			t.Fatalf("AddOuter data = %v, want %v", m.Data, want)
		}
	}
}

func TestMatrixRowAliases(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Row(1)[0] = 42
	if m.At(1, 0) != 42 {
		t.Fatal("Row does not alias matrix storage")
	}
}

func TestMatrixCloneAndZero(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 7)
	c := m.Clone()
	m.Zero()
	if c.At(0, 0) != 7 {
		t.Fatal("Clone affected by Zero on original")
	}
	if m.At(0, 0) != 0 {
		t.Fatal("Zero did not clear")
	}
}

func TestMatVecShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatVec(NewVector(2), NewMatrix(2, 3), Vector{1, 2})
}

func BenchmarkMatVec256x256(b *testing.B) {
	r := rng.New(1)
	m := NewMatrix(256, 256)
	for i := range m.Data {
		m.Data[i] = r.NormFloat64()
	}
	x := randVec(r, 256)
	dst := NewVector(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatVec(dst, m, x)
	}
}
