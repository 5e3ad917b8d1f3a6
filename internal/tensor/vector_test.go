package tensor

import (
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"

	"abdhfl/internal/rng"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func vecAlmostEq(a, b Vector, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !almostEq(a[i], b[i], tol) {
			return false
		}
	}
	return true
}

func randVec(r *rng.RNG, n int) Vector {
	v := NewVector(n)
	for i := range v {
		v[i] = r.NormFloat64()
	}
	return v
}

func TestAddSubScale(t *testing.T) {
	a := Vector{1, 2, 3}
	b := Vector{4, 5, 6}
	dst := NewVector(3)
	Add(dst, a, b)
	if !vecAlmostEq(dst, Vector{5, 7, 9}, 0) {
		t.Fatalf("Add = %v", dst)
	}
	Sub(dst, b, a)
	if !vecAlmostEq(dst, Vector{3, 3, 3}, 0) {
		t.Fatalf("Sub = %v", dst)
	}
	Scale(dst, 2, a)
	if !vecAlmostEq(dst, Vector{2, 4, 6}, 0) {
		t.Fatalf("Scale = %v", dst)
	}
}

func TestAddAliasing(t *testing.T) {
	a := Vector{1, 2}
	Add(a, a, a)
	if !vecAlmostEq(a, Vector{2, 4}, 0) {
		t.Fatalf("aliased Add = %v", a)
	}
}

func TestAxpy(t *testing.T) {
	dst := Vector{1, 1, 1}
	Axpy(dst, 3, Vector{1, 2, 3})
	if !vecAlmostEq(dst, Vector{4, 7, 10}, 0) {
		t.Fatalf("Axpy = %v", dst)
	}
}

func TestLerpEndpoints(t *testing.T) {
	a := Vector{1, 2}
	b := Vector{3, 8}
	dst := NewVector(2)
	if Lerp(dst, a, b, 0); !vecAlmostEq(dst, a, 1e-15) {
		t.Fatalf("Lerp t=0 = %v", dst)
	}
	if Lerp(dst, a, b, 1); !vecAlmostEq(dst, b, 1e-15) {
		t.Fatalf("Lerp t=1 = %v", dst)
	}
	if Lerp(dst, a, b, 0.5); !vecAlmostEq(dst, Vector{2, 5}, 1e-15) {
		t.Fatalf("Lerp t=0.5 = %v", dst)
	}
}

func TestDotNorm(t *testing.T) {
	a := Vector{3, 4}
	if Dot(a, a) != 25 {
		t.Fatalf("Dot = %v", Dot(a, a))
	}
	if Norm2(a) != 5 {
		t.Fatalf("Norm2 = %v", Norm2(a))
	}
}

func TestDistance(t *testing.T) {
	if d := Distance(Vector{0, 0}, Vector{3, 4}); d != 5 {
		t.Fatalf("Distance = %v", d)
	}
	if d := SquaredDistance(Vector{1, 1}, Vector{1, 1}); d != 0 {
		t.Fatalf("SquaredDistance = %v", d)
	}
}

func TestCosineSimilarity(t *testing.T) {
	if c := CosineSimilarity(Vector{1, 0}, Vector{1, 0}); !almostEq(c, 1, 1e-12) {
		t.Fatalf("parallel cos = %v", c)
	}
	if c := CosineSimilarity(Vector{1, 0}, Vector{0, 1}); !almostEq(c, 0, 1e-12) {
		t.Fatalf("orthogonal cos = %v", c)
	}
	if c := CosineSimilarity(Vector{1, 0}, Vector{-1, 0}); !almostEq(c, -1, 1e-12) {
		t.Fatalf("antiparallel cos = %v", c)
	}
	if c := CosineSimilarity(Vector{0, 0}, Vector{1, 0}); c != 0 {
		t.Fatalf("zero-vector cos = %v", c)
	}
}

func TestMean(t *testing.T) {
	vs := []Vector{{1, 2}, {3, 4}, {5, 6}}
	dst := NewVector(2)
	Mean(dst, vs)
	if !vecAlmostEq(dst, Vector{3, 4}, 1e-12) {
		t.Fatalf("Mean = %v", dst)
	}
}

func TestArgMax(t *testing.T) {
	if i := ArgMax(Vector{1, 5, 3}); i != 1 {
		t.Fatalf("ArgMax = %d", i)
	}
	if i := ArgMax(Vector{7, 7, 7}); i != 0 {
		t.Fatalf("ArgMax ties = %d", i)
	}
}

func TestClip(t *testing.T) {
	v := Vector{3, 4}
	Clip(v, 2.5)
	if !almostEq(Norm2(v), 2.5, 1e-12) {
		t.Fatalf("clipped norm = %v", Norm2(v))
	}
	u := Vector{0.3, 0.4}
	before := u.Clone()
	Clip(u, 2.5)
	if !vecAlmostEq(u, before, 0) {
		t.Fatal("Clip modified a vector under the threshold")
	}
}

// allFiniteRef is AllFinite as a definition: no element is NaN or ±Inf.
func allFiniteRef(v Vector) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// TestAllFinite puts every kind of float64 at every position of vectors of
// length 0 to 9 — so each lane of an unrolled body and each length of its
// tail sees each value — and holds AllFinite to the definition.
func TestAllFinite(t *testing.T) {
	values := []struct {
		name   string
		x      float64
		finite bool
	}{
		{"one", 1, true},
		{"+0", 0, true},
		{"-0", math.Copysign(0, -1), true},
		{"+max", math.MaxFloat64, true},
		{"-max", -math.MaxFloat64, true},
		{"subnormal", math.SmallestNonzeroFloat64, true},
		{"-subnormal", -math.SmallestNonzeroFloat64, true},
		{"largest subnormal", math.Float64frombits(0x000FFFFFFFFFFFFF), true},
		{"+Inf", math.Inf(1), false},
		{"-Inf", math.Inf(-1), false},
		{"NaN", math.NaN(), false},
		{"-NaN", math.Float64frombits(0xFFF8000000000000), false},
		{"signalling NaN, payload 1", math.Float64frombits(0x7FF0000000000001), false},
		{"NaN, full payload", math.Float64frombits(0x7FFFFFFFFFFFFFFF), false},
	}
	for n := 0; n <= 9; n++ {
		v := NewVector(n)
		for i := range v {
			v[i] = float64(i) - 4.5
		}
		if !AllFinite(v) {
			t.Fatalf("finite vector of length %d reported non-finite", n)
		}
		for pos := 0; pos < n; pos++ {
			for _, c := range values {
				old := v[pos]
				v[pos] = c.x
				if got := AllFinite(v); got != c.finite {
					t.Fatalf("length %d, %s at %d: AllFinite = %v, want %v", n, c.name, pos, got, c.finite)
				}
				v[pos] = old
			}
		}
	}
	// Finite values that overflow when summed or cancelled must not trip it.
	if !AllFinite(Vector{math.MaxFloat64, math.MaxFloat64, -math.MaxFloat64, math.MaxFloat64, math.MaxFloat64}) {
		t.Fatal("a vector of ±MaxFloat64 reported non-finite")
	}
}

// FuzzAllFinite reads its input as little-endian float64 bit patterns, so the
// fuzzer mutates straight through NaN payloads, ±Inf and subnormals.
func FuzzAllFinite(f *testing.F) {
	f.Add([]byte{})
	f.Add(leFloats(1, 2, 3, 4, 5))
	f.Add(leFloats(1, 2, 3, 4, math.NaN()))
	f.Add(leFloats(math.Inf(-1), 2, 3, 4, 5, 6, 7, 8))
	f.Add(leFloats(math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64))
	f.Fuzz(func(t *testing.T, raw []byte) {
		v := NewVector(len(raw) / 8)
		for i := range v {
			v[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		if got, want := AllFinite(v), allFiniteRef(v); got != want {
			t.Fatalf("AllFinite(%v) = %v, want %v", v, got, want)
		}
	})
}

func leFloats(vals ...float64) []byte {
	b := make([]byte, 8*len(vals))
	for i, x := range vals {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
	return b
}

func TestPairwiseSquaredDistances(t *testing.T) {
	vs := []Vector{{0, 0}, {3, 4}, {0, 1}}
	d := PairwiseSquaredDistances(vs)
	if d[0][1] != 25 || d[1][0] != 25 {
		t.Fatalf("d01 = %v", d[0][1])
	}
	if d[0][2] != 1 {
		t.Fatalf("d02 = %v", d[0][2])
	}
	for i := range d {
		if d[i][i] != 0 {
			t.Fatalf("diagonal not zero at %d", i)
		}
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Add(NewVector(2), Vector{1, 2}, Vector{1, 2, 3})
}

func TestTriangleInequalityProperty(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		a, b, c := randVec(r, 8), randVec(r, 8), randVec(r, 8)
		return Distance(a, c) <= Distance(a, b)+Distance(b, c)+1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := Vector{1, 2, 3}
	c := a.Clone()
	c[0] = 99
	if a[0] != 1 {
		t.Fatal("Clone shares storage")
	}
}

func BenchmarkDot1024(b *testing.B) {
	r := rng.New(1)
	x := randVec(r, 1024)
	y := randVec(r, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Dot(x, y)
	}
}

func BenchmarkPairwise32x1024(b *testing.B) {
	r := rng.New(1)
	vs := make([]Vector, 32)
	for i := range vs {
		vs[i] = randVec(r, 1024)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = PairwiseSquaredDistances(vs)
	}
}

func TestPairwiseParallelMatchesSerial(t *testing.T) {
	// A population large enough to cross the parallel threshold must produce
	// exactly the same matrix as the small/serial path computes.
	r := rng.New(31)
	const n, dim = 64, 1024 // 64*64*1024/2 = 2M ops > threshold
	vs := make([]Vector, n)
	for i := range vs {
		vs[i] = randVec(r, dim)
	}
	got := PairwiseSquaredDistances(vs)
	for i := 0; i < n; i += 7 {
		for j := 0; j < n; j += 5 {
			want := SquaredDistance(vs[i], vs[j])
			if got[i][j] != want {
				t.Fatalf("d[%d][%d] = %v, want %v", i, j, got[i][j], want)
			}
			if got[i][j] != got[j][i] {
				t.Fatal("matrix not symmetric")
			}
		}
	}
}
