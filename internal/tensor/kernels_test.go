package tensor

import (
	"math"
	"slices"
	"sort"
	"testing"

	"abdhfl/internal/rng"
)

func bitsEq(a, b Vector) bool {
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

// kernelPopulation builds update sets large enough to cross the parallel
// threshold (d*n >= parallelThreshold) so the fan-out paths actually run.
func kernelPopulation(seed uint64, n, d int) []Vector {
	r := rng.New(seed)
	vs := make([]Vector, n)
	for i := range vs {
		vs[i] = randVec(r, d)
	}
	return vs
}

// keptBySorting counts, per input, the coordinates on which its value lies
// between the column's order statistics of rank loRank and hiRank.
func keptBySorting(vs []Vector, loRank, hiRank int) []int {
	kept := make([]int, len(vs))
	col := make([]float64, len(vs))
	for j := range vs[0] {
		for i, v := range vs {
			col[i] = v[j]
		}
		sort.Float64s(col)
		for i, v := range vs {
			if v[j] >= col[loRank] && v[j] <= col[hiRank] {
				kept[i]++
			}
		}
	}
	return kept
}

// TestCoordinateKernelsBitIdenticalToSerial pins the tentpole contract: the
// WS kernels must produce bit-identical output for every worker count, and
// match the legacy sort-based serial implementations exactly.
func TestCoordinateKernelsBitIdenticalToSerial(t *testing.T) {
	const n, d = 12, 8000 // n*d > parallelThreshold: parallel path engaged
	vs := kernelPopulation(3, n, d)
	workerCounts := []int{1, 2, 3, 8}

	legacyMed := CoordinateMedian(NewVector(d), vs)
	legacyTrim := CoordinateTrimmedMean(NewVector(d), vs, 2)
	legacyGeo := GeometricMedian(NewVector(d), vs, 1e-8, 50)
	legacyMean := Mean(NewVector(d), vs)

	for _, w := range workerCounts {
		cols := make([]float64, ResolveWorkers(w)*2*n)
		if got := CoordinateMedianWS(NewVector(d), vs, cols, nil, w); !bitsEq(got, legacyMed) {
			t.Errorf("CoordinateMedianWS workers=%d differs from CoordinateMedian", w)
		}
		if got := CoordinateTrimmedMeanWS(NewVector(d), vs, 2, cols, nil, w); !bitsEq(got, legacyTrim) {
			t.Errorf("CoordinateTrimmedMeanWS workers=%d differs from CoordinateTrimmedMean", w)
		}
		// Counting what each input had kept changes neither aggregate, and
		// the counts are those of a sorted column: an input is kept where its
		// value lies between the order statistics the rule keeps.
		kept := make([]int, ResolveWorkers(w)*n)
		if got := CoordinateMedianWS(NewVector(d), vs, cols, kept, w); !bitsEq(got, legacyMed) {
			t.Errorf("CoordinateMedianWS workers=%d with kept counts differs from CoordinateMedian", w)
		}
		if want := keptBySorting(vs, (n-1)/2, n/2); !slices.Equal(kept[:n], want) {
			t.Errorf("CoordinateMedianWS workers=%d kept %v, a sort says %v", w, kept[:n], want)
		}
		if got := CoordinateTrimmedMeanWS(NewVector(d), vs, 2, cols, kept, w); !bitsEq(got, legacyTrim) {
			t.Errorf("CoordinateTrimmedMeanWS workers=%d with kept counts differs from CoordinateTrimmedMean", w)
		}
		if want := keptBySorting(vs, 2, n-3); !slices.Equal(kept[:n], want) {
			t.Errorf("CoordinateTrimmedMeanWS workers=%d kept %v, a sort says %v", w, kept[:n], want)
		}
		next, dists := NewVector(d), make([]float64, n)
		if got := GeometricMedianWS(NewVector(d), vs, 1e-8, 50, next, dists, w); !bitsEq(got, legacyGeo) {
			t.Errorf("GeometricMedianWS workers=%d differs from GeometricMedian", w)
		}
		if got := MeanWS(NewVector(d), vs, w); !bitsEq(got, legacyMean) {
			t.Errorf("MeanWS workers=%d differs from Mean", w)
		}
	}
}

func TestScaledMeanWSMatchesClipAverage(t *testing.T) {
	const n, d = 10, 8000
	vs := kernelPopulation(5, n, d)
	scales := make([]float64, n)
	for i := range scales {
		if i%2 == 0 {
			scales[i] = 0.5 / float64(i+1)
		} else {
			scales[i] = 1 // must contribute vs[i] exactly
		}
	}
	// Legacy formulation: clone, scale, average.
	clipped := make([]Vector, n)
	for i, v := range vs {
		c := v.Clone()
		if scales[i] != 1 {
			Scale(c, scales[i], c)
		}
		clipped[i] = c
	}
	want := Mean(NewVector(d), clipped)
	for _, w := range []int{1, 2, 8} {
		if got := ScaledMeanWS(NewVector(d), vs, scales, w); !bitsEq(got, want) {
			t.Errorf("ScaledMeanWS workers=%d differs from clone/scale/mean", w)
		}
	}
}

func TestCenteredStepWSMatchesSubClipAxpy(t *testing.T) {
	const n, d = 9, 8000
	vs := kernelPopulation(9, n, d)
	start := randVec(rng.New(21), d)
	scales := make([]float64, n)
	for i := range scales {
		if i%3 == 0 {
			scales[i] = 0.25
		} else {
			scales[i] = 1
		}
	}
	// Legacy formulation: step = sum of (1/n)*scale*(u-v), then v += step.
	want := start.Clone()
	step := NewVector(d)
	diff := NewVector(d)
	for i, u := range vs {
		Sub(diff, u, want)
		if scales[i] != 1 {
			Scale(diff, scales[i], diff)
		}
		Axpy(step, 1/float64(n), diff)
	}
	Add(want, want, step)
	for _, w := range []int{1, 2, 8} {
		got := start.Clone()
		CenteredStepWS(got, vs, scales, w)
		if !bitsEq(got, want) {
			t.Errorf("CenteredStepWS workers=%d differs from sub/clip/axpy", w)
		}
	}
}

func TestDistancesAndNormsWS(t *testing.T) {
	const n, d = 16, 6000
	vs := kernelPopulation(31, n, d)
	from := randVec(rng.New(32), d)
	wantD := make([]float64, n)
	wantN := make([]float64, n)
	for i, v := range vs {
		wantD[i] = Distance(from, v)
		wantN[i] = Norm2(v)
	}
	for _, w := range []int{1, 3, 8} {
		gotD := DistancesWS(make([]float64, n), from, vs, w)
		gotN := NormsWS(make([]float64, n), vs, w)
		for i := range vs {
			if math.Float64bits(gotD[i]) != math.Float64bits(wantD[i]) {
				t.Errorf("DistancesWS workers=%d at %d: %v != %v", w, i, gotD[i], wantD[i])
			}
			if math.Float64bits(gotN[i]) != math.Float64bits(wantN[i]) {
				t.Errorf("NormsWS workers=%d at %d: %v != %v", w, i, gotN[i], wantN[i])
			}
		}
	}
}

func TestPairwiseSquaredDistancesWS(t *testing.T) {
	const n, d = 14, 6000
	vs := kernelPopulation(41, n, d)
	direct := PairwiseSquaredDistances(vs)
	var ref []float64
	for _, w := range []int{1, 2, 8} {
		flat := PairwiseSquaredDistancesWS(make([]float64, n*n), make([]float64, n), vs, w)
		if ref == nil {
			ref = flat
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				g, want := flat[i*n+j], direct[i][j]
				// Gram-trick values agree with the direct form only up to
				// cancellation error; the contract is closeness + symmetry +
				// worker-count bit-identity, not bit-equality with the
				// subtract-square form.
				tol := 1e-9 * (1 + want)
				if math.Abs(g-want) > tol {
					t.Errorf("workers=%d (%d,%d): %v vs direct %v", w, i, j, g, want)
				}
				if g < 0 {
					t.Errorf("workers=%d (%d,%d): negative squared distance %v", w, i, j, g)
				}
				if math.Float64bits(g) != math.Float64bits(flat[j*n+i]) {
					t.Errorf("workers=%d (%d,%d): asymmetric", w, i, j)
				}
				if math.Float64bits(g) != math.Float64bits(ref[i*n+j]) {
					t.Errorf("workers=%d (%d,%d): differs across worker counts", w, i, j)
				}
			}
		}
	}
}

func TestPairwiseDotsWS(t *testing.T) {
	const n, d = 12, 6000
	vs := kernelPopulation(43, n, d)
	for _, w := range []int{1, 2, 8} {
		flat := PairwiseDotsWS(make([]float64, n*n), vs, w)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := Dot(vs[i], vs[j])
				if math.Float64bits(flat[i*n+j]) != math.Float64bits(want) {
					t.Errorf("workers=%d (%d,%d): %v != Dot %v", w, i, j, flat[i*n+j], want)
				}
			}
		}
	}
}

// TestSelectKernelAllocFree asserts the serial paths of the WS kernels stay
// allocation-free once scratch is provided (small shapes stay below the
// parallel threshold, mirroring internal/nn/alloc_test.go).
func TestSelectKernelAllocFree(t *testing.T) {
	const n, d = 8, 64
	vs := kernelPopulation(51, n, d)
	dst := NewVector(d)
	cols := make([]float64, 2*n)
	kept := make([]int, n)
	next, dists := NewVector(d), make([]float64, n)
	sq := make([]float64, n*n)
	sqn := make([]float64, n)
	allocs := testing.AllocsPerRun(10, func() {
		CoordinateMedianWS(dst, vs, cols, nil, 1)
		CoordinateMedianWS(dst, vs, cols, kept, 1)
		CoordinateTrimmedMeanWS(dst, vs, 2, cols, kept, 1)
		GeometricMedianWS(dst, vs, 1e-6, 10, next, dists, 1)
		MeanWS(dst, vs, 1)
		PairwiseSquaredDistancesWS(sq, sqn, vs, 1)
		PairwiseDotsWS(sq, vs, 1)
		DistancesWS(dists, next, vs, 1)
		NormsWS(dists, vs, 1)
	})
	if allocs != 0 {
		t.Fatalf("serial WS kernels allocated %v times per run", allocs)
	}
}

// TestNearMedianMeanTiesKeepInputOrder pins the tie rule at the paper's
// cluster size: Bulyan over n = 4, f = 1 hands this kernel two updates with
// beta = 1, where both values are exactly as far from their midpoint on
// every coordinate. The earlier input must win each tie, so dst is vs[0] bit
// for bit; the values are multiples of 1/8 so that every midpoint is exact.
func TestNearMedianMeanTiesKeepInputOrder(t *testing.T) {
	const d = 9000 // 2*d crosses parallelThreshold
	r := rng.New(31)
	vs := []Vector{NewVector(d), NewVector(d)}
	for j := 0; j < d; j++ {
		vs[0][j] = float64(r.Intn(4001)-2000) / 8
		vs[1][j] = float64(r.Intn(4001)-2000) / 8
	}
	for _, w := range []int{1, 2, 3, 8} {
		cols := make([]float64, ResolveWorkers(w)*2)
		if got := CoordinateNearMedianMeanWS(NewVector(d), vs, 1, cols, w); !bitsEq(got, vs[0]) {
			t.Errorf("workers=%d: ties did not resolve to the first input", w)
		}
	}
}

// TestNearMedianMeanMatchesStableSort compares the kernel with the naive
// formulation: per coordinate, stable-sort the inputs by distance to the
// median and average the first beta.
func TestNearMedianMeanMatchesStableSort(t *testing.T) {
	const n, d, beta = 7, 8000, 3
	vs := kernelPopulation(5, n, d)
	for j := 0; j < d; j += 3 {
		vs[4][j] = vs[1][j] // exact distance ties between inputs 1 and 4
	}
	want := NewVector(d)
	col := make([]float64, n)
	for j := range want {
		for i, v := range vs {
			col[i] = v[j]
		}
		med := Median(col)
		sort.SliceStable(col, func(a, b int) bool { return math.Abs(col[a]-med) < math.Abs(col[b]-med) })
		s := 0.0
		for _, v := range col[:beta] {
			s += v
		}
		want[j] = s / beta
	}
	for _, w := range []int{1, 2, 3, 8} {
		cols := make([]float64, ResolveWorkers(w)*n)
		if got := CoordinateNearMedianMeanWS(NewVector(d), vs, beta, cols, w); !bitsEq(got, want) {
			t.Errorf("workers=%d differs from the stable-sort reference", w)
		}
	}
}
