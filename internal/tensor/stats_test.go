package tensor

import (
	"sort"
	"testing"
	"testing/quick"

	"abdhfl/internal/rng"
)

func TestMedianOdd(t *testing.T) {
	if m := Median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("Median = %v", m)
	}
}

func TestMedianEven(t *testing.T) {
	if m := Median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("Median = %v", m)
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("Median mutated input: %v", xs)
	}
}

func TestMedianBetweenMinMaxProperty(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		n := r.Intn(20) + 1
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64() * 10
		}
		m := Median(xs)
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		return m >= s[0] && m <= s[n-1]
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTrimmedMean(t *testing.T) {
	// Extremes 0 and 100 are trimmed; mean of {2,3,4} = 3.
	if m := TrimmedMean([]float64{100, 2, 3, 4, 0}, 1); m != 3 {
		t.Fatalf("TrimmedMean = %v", m)
	}
}

func TestTrimmedMeanZeroTrimIsMean(t *testing.T) {
	if m := TrimmedMean([]float64{1, 2, 3}, 0); m != 2 {
		t.Fatalf("TrimmedMean trim=0 = %v", m)
	}
}

func TestTrimmedMeanPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	TrimmedMean([]float64{1, 2}, 1)
}

func TestCoordinateMedianResistsOutlier(t *testing.T) {
	vs := []Vector{{1, 1}, {2, 2}, {1000, -1000}}
	dst := CoordinateMedian(NewVector(2), vs)
	if !vecAlmostEq(dst, Vector{2, 1}, 1e-12) {
		t.Fatalf("CoordinateMedian = %v", dst)
	}
}

func TestCoordinateTrimmedMean(t *testing.T) {
	vs := []Vector{{0}, {1}, {2}, {3}, {1000}}
	dst := CoordinateTrimmedMean(NewVector(1), vs, 1)
	if !vecAlmostEq(dst, Vector{2}, 1e-12) {
		t.Fatalf("CoordinateTrimmedMean = %v", dst)
	}
}

func TestGeometricMedianSinglePoint(t *testing.T) {
	vs := []Vector{{5, 5}}
	dst := GeometricMedian(NewVector(2), vs, 1e-9, 100)
	if !vecAlmostEq(dst, Vector{5, 5}, 1e-6) {
		t.Fatalf("GeometricMedian = %v", dst)
	}
}

func TestGeometricMedianSymmetric(t *testing.T) {
	// For a symmetric configuration the geometric median is the centroid.
	vs := []Vector{{1, 0}, {-1, 0}, {0, 1}, {0, -1}}
	dst := GeometricMedian(NewVector(2), vs, 1e-10, 500)
	if !vecAlmostEq(dst, Vector{0, 0}, 1e-6) {
		t.Fatalf("GeometricMedian = %v", dst)
	}
}

func TestGeometricMedianOutlierResistance(t *testing.T) {
	// 4 points near origin, 1 far outlier: the geometric median must stay
	// near the cluster while the mean is dragged away.
	vs := []Vector{{0, 0}, {0.1, 0}, {0, 0.1}, {-0.1, 0}, {1000, 1000}}
	gm := GeometricMedian(NewVector(2), vs, 1e-9, 500)
	mean := Mean(NewVector(2), vs)
	if Norm2(gm) > 1 {
		t.Fatalf("geometric median dragged by outlier: %v", gm)
	}
	if Norm2(mean) < 100 {
		t.Fatalf("sanity: mean should be dragged, got %v", mean)
	}
}

func TestGeometricMedianMinimizesSumDistancesProperty(t *testing.T) {
	// The geometric median must achieve a lower (or equal) sum of distances
	// than the coordinate mean and any input point.
	check := func(seed uint64) bool {
		r := rng.New(seed)
		n := r.Intn(8) + 3
		vs := make([]Vector, n)
		for i := range vs {
			vs[i] = randVec(r, 4)
		}
		gm := GeometricMedian(NewVector(4), vs, 1e-10, 1000)
		sum := func(p Vector) float64 {
			s := 0.0
			for _, v := range vs {
				s += Distance(p, v)
			}
			return s
		}
		sgm := sum(gm)
		if sgm > sum(Mean(NewVector(4), vs))+1e-6 {
			return false
		}
		for _, v := range vs {
			if sgm > sum(v)+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCoordinateMedian16x4096(b *testing.B) {
	r := rng.New(1)
	vs := make([]Vector, 16)
	for i := range vs {
		vs[i] = randVec(r, 4096)
	}
	dst := NewVector(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CoordinateMedian(dst, vs)
	}
}

func BenchmarkGeometricMedian16x1024(b *testing.B) {
	r := rng.New(1)
	vs := make([]Vector, 16)
	for i := range vs {
		vs[i] = randVec(r, 1024)
	}
	dst := NewVector(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GeometricMedian(dst, vs, 1e-6, 50)
	}
}
