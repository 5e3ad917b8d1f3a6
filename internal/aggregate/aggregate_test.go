package aggregate

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"abdhfl/internal/rng"
	"abdhfl/internal/tensor"
)

// honestPopulation returns n honest updates clustered around center with the
// given spread.
func honestPopulation(r *rng.RNG, n, dim int, center tensor.Vector, spread float64) []tensor.Vector {
	out := make([]tensor.Vector, n)
	for i := range out {
		v := center.Clone()
		for j := range v {
			v[j] += spread * r.NormFloat64()
		}
		out[i] = v
	}
	return out
}

func center(dim int, val float64) tensor.Vector {
	return tensor.Fill(tensor.NewVector(dim), val)
}

func TestMeanExact(t *testing.T) {
	got, err := Mean{}.Aggregate([]tensor.Vector{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 2 || got[1] != 3 {
		t.Fatalf("mean = %v", got)
	}
}

func TestEmptyUpdatesError(t *testing.T) {
	rules := []Aggregator{Mean{}, Median{}, TrimmedMean{0.2}, GeoMed{}, Krum{}, CenteredClipping{}, CosineClustering{}}
	for _, a := range rules {
		if _, err := a.Aggregate(nil); err == nil {
			t.Fatalf("%s accepted empty update set", a.Name())
		}
	}
}

func TestDimMismatchError(t *testing.T) {
	if _, err := (Mean{}).Aggregate([]tensor.Vector{{1, 2}, {1}}); err == nil {
		t.Fatal("dim mismatch not rejected")
	}
}

func TestNonFiniteRejected(t *testing.T) {
	if _, err := (Median{}).Aggregate([]tensor.Vector{{1, 2}, {math.NaN(), 0}}); err == nil {
		t.Fatal("NaN update not rejected")
	}
}

func TestInputsNotModified(t *testing.T) {
	r := rng.New(1)
	updates := honestPopulation(r, 6, 8, center(8, 1), 0.1)
	snapshots := make([]tensor.Vector, len(updates))
	for i, u := range updates {
		snapshots[i] = u.Clone()
	}
	for _, a := range []Aggregator{Mean{}, Median{}, TrimmedMean{0.2}, GeoMed{}, Krum{FFraction: 0.25}, CenteredClipping{}, CosineClustering{}} {
		if _, err := a.Aggregate(updates); err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
		for i := range updates {
			for j := range updates[i] {
				if updates[i][j] != snapshots[i][j] {
					t.Fatalf("%s modified input %d", a.Name(), i)
				}
			}
		}
	}
}

func TestMeanVulnerableMedianRobust(t *testing.T) {
	// One massive outlier among 9 honest updates: the mean must be dragged,
	// the median must not.
	r := rng.New(2)
	updates := honestPopulation(r, 9, 4, center(4, 1), 0.05)
	updates = append(updates, center(4, 1e6))
	mean, _ := Mean{}.Aggregate(updates)
	med, _ := Median{}.Aggregate(updates)
	if tensor.Distance(mean, center(4, 1)) < 100 {
		t.Fatal("sanity: mean should be dragged by the outlier")
	}
	if d := tensor.Distance(med, center(4, 1)); d > 1 {
		t.Fatalf("median dragged by outlier: distance %v", d)
	}
}

func TestKrumSelectsHonest(t *testing.T) {
	r := rng.New(3)
	honest := honestPopulation(r, 7, 8, center(8, 2), 0.05)
	byz := honestPopulation(r, 3, 8, center(8, -50), 0.05)
	updates := append(append([]tensor.Vector{}, honest...), byz...)
	k := Krum{F: 3, M: 1}
	out, err := k.Aggregate(updates)
	if err != nil {
		t.Fatal(err)
	}
	if d := tensor.Distance(out, center(8, 2)); d > 1 {
		t.Fatalf("krum selected a Byzantine update: distance %v", d)
	}
}

func TestMultiKrumExcludesByzantine(t *testing.T) {
	r := rng.New(4)
	honest := honestPopulation(r, 12, 8, center(8, 1), 0.05)
	byz := honestPopulation(r, 4, 8, center(8, 40), 0.05)
	updates := append(append([]tensor.Vector{}, honest...), byz...)
	mk := NewMultiKrum(0.25)
	var aud FilterAudit
	out := tensor.NewVector(8)
	if err := mk.AggregateInto(out, &Scratch{Audit: &aud}, updates); err != nil {
		t.Fatal(err)
	}
	for i := 12; i < len(updates); i++ {
		if aud.Decisions[i] != DecisionTrimmed {
			t.Fatalf("MultiKrum selected Byzantine index %d", i)
		}
	}
	if d := tensor.Distance(out, center(8, 1)); d > 0.5 {
		t.Fatalf("MultiKrum aggregate off-center by %v", d)
	}
}

func TestKrumSmallClusterFallback(t *testing.T) {
	// The paper's cluster size is 4 with f=1: n-f-2 = 1 so the fallback path
	// (k >= 1) must hold and still filter the outlier.
	r := rng.New(5)
	updates := honestPopulation(r, 3, 8, center(8, 1), 0.05)
	updates = append(updates, center(8, 100))
	out, err := Krum{F: 1}.Aggregate(updates)
	if err != nil {
		t.Fatal(err)
	}
	if d := tensor.Distance(out, center(8, 1)); d > 1 {
		t.Fatalf("small-cluster Krum failed: distance %v", d)
	}
}

func TestKrumSingleUpdate(t *testing.T) {
	out, err := Krum{F: 0, M: 1}.Aggregate([]tensor.Vector{{7, 7}})
	if err != nil || out[0] != 7 {
		t.Fatalf("single-update krum: %v %v", out, err)
	}
}

func TestTrimmedMeanRobust(t *testing.T) {
	updates := []tensor.Vector{{1}, {1.1}, {0.9}, {1.05}, {1e9}}
	out, err := TrimmedMean{TrimFraction: 0.25}.Aggregate(updates)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] > 2 {
		t.Fatalf("trimmed mean dragged: %v", out[0])
	}
}

func TestTrimmedMeanOverTrimError(t *testing.T) {
	if _, err := (TrimmedMean{TrimFraction: 0.5}).Aggregate([]tensor.Vector{{1}, {2}}); err == nil {
		t.Fatal("over-trim not rejected")
	}
}

func TestGeoMedRobust(t *testing.T) {
	r := rng.New(6)
	updates := honestPopulation(r, 8, 4, center(4, 3), 0.05)
	updates = append(updates, center(4, 1e5), center(4, -1e5))
	out, err := GeoMed{}.Aggregate(updates)
	if err != nil {
		t.Fatal(err)
	}
	if d := tensor.Distance(out, center(4, 3)); d > 1 {
		t.Fatalf("geomed dragged: %v", d)
	}
}

func TestCenteredClippingRobust(t *testing.T) {
	r := rng.New(7)
	updates := honestPopulation(r, 9, 4, center(4, 2), 0.1)
	updates = append(updates, center(4, 1e4))
	out, err := CenteredClipping{}.Aggregate(updates)
	if err != nil {
		t.Fatal(err)
	}
	if d := tensor.Distance(out, center(4, 2)); d > 2 {
		t.Fatalf("centered clipping dragged: %v", d)
	}
}

func TestCenteredClippingIdenticalUpdates(t *testing.T) {
	updates := []tensor.Vector{{5, 5}, {5, 5}, {5, 5}}
	out, err := CenteredClipping{}.Aggregate(updates)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 5 || out[1] != 5 {
		t.Fatalf("identical updates changed: %v", out)
	}
}

func TestCosineClusteringPicksMajorityDirection(t *testing.T) {
	r := rng.New(8)
	honest := honestPopulation(r, 8, 4, center(4, 1), 0.02)
	flipped := honestPopulation(r, 3, 4, center(4, -1), 0.02)
	updates := append(append([]tensor.Vector{}, honest...), flipped...)
	var aud FilterAudit
	out := tensor.NewVector(4)
	if err := (CosineClustering{MinSimilarity: 0.5}).AggregateInto(out, &Scratch{Audit: &aud}, updates); err != nil {
		t.Fatal(err)
	}
	if out[0] < 0 {
		t.Fatalf("clustering picked the flipped direction: %v", out)
	}
	// The kept cluster is exactly the 8 honest updates.
	for i, d := range aud.Decisions {
		if want := i < 8; (d == DecisionKept) != want {
			t.Fatalf("update %d: decision %v, want kept = %v", i, d, want)
		}
	}
}

func TestAllRulesExactOnUnanimousUpdates(t *testing.T) {
	// Every rule must return (approximately) v when all updates equal v.
	check := func(seed uint64) bool {
		r := rng.New(seed)
		v := tensor.NewVector(6)
		for i := range v {
			v[i] = r.NormFloat64()
		}
		updates := []tensor.Vector{v.Clone(), v.Clone(), v.Clone(), v.Clone(), v.Clone()}
		for _, a := range []Aggregator{Mean{}, Median{}, TrimmedMean{0.2}, GeoMed{}, Krum{F: 1}, CenteredClipping{}, CosineClustering{}} {
			out, err := a.Aggregate(updates)
			if err != nil {
				return false
			}
			if tensor.Distance(out, v) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestAggregateWithinConvexHullProperty(t *testing.T) {
	// For 1-D updates, every robust rule's output must lie within
	// [min, max] of the inputs.
	check := func(seed uint64) bool {
		r := rng.New(seed)
		n := r.Intn(8) + 4
		updates := make([]tensor.Vector, n)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := range updates {
			x := r.NormFloat64() * 10
			updates[i] = tensor.Vector{x}
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		for _, a := range []Aggregator{Mean{}, Median{}, GeoMed{}, Krum{F: 1}, CenteredClipping{}} {
			out, err := a.Aggregate(updates)
			if err != nil {
				return false
			}
			if out[0] < lo-1e-9 || out[0] > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestByName(t *testing.T) {
	for _, n := range Names() {
		a, err := ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		if a == nil {
			t.Fatalf("ByName(%q) returned nil", n)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func BenchmarkMultiKrum16x2500(b *testing.B) {
	r := rng.New(1)
	updates := honestPopulation(r, 16, 2500, center(2500, 0), 1)
	mk := NewMultiKrum(0.25)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mk.Aggregate(updates); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMedian16x2500(b *testing.B) {
	r := rng.New(1)
	updates := honestPopulation(r, 16, 2500, center(2500, 0), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (Median{}).Aggregate(updates); err != nil {
			b.Fatal(err)
		}
	}
}

func TestBulyanRobustToOutliers(t *testing.T) {
	r := rng.New(9)
	honest := honestPopulation(r, 12, 8, center(8, 1), 0.05)
	byz := honestPopulation(r, 3, 8, center(8, -80), 0.05)
	updates := append(append([]tensor.Vector{}, honest...), byz...)
	out, err := Bulyan{F: 3}.Aggregate(updates)
	if err != nil {
		t.Fatal(err)
	}
	if d := tensor.Distance(out, center(8, 1)); d > 0.5 {
		t.Fatalf("bulyan dragged: %v", d)
	}
}

func TestBulyanResistsALEStyleAttack(t *testing.T) {
	// A coordinated small-bias attack: Byzantine updates sit just outside
	// the honest cloud in one coordinate. Bulyan's per-coordinate trimming
	// must bound the bias the attackers can inject.
	r := rng.New(10)
	honest := honestPopulation(r, 12, 4, center(4, 0), 0.1)
	updates := append([]tensor.Vector{}, honest...)
	for i := 0; i < 4; i++ {
		v := center(4, 0)
		v[0] = 0.35 // hides near the honest spread in coordinate 0
		updates = append(updates, v)
	}
	out, err := Bulyan{F: 4}.Aggregate(updates)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] > 0.3 {
		t.Fatalf("bulyan coordinate bias = %v", out[0])
	}
}

func TestBulyanSingleUpdate(t *testing.T) {
	out, err := Bulyan{F: 0}.Aggregate([]tensor.Vector{{3, 3}})
	if err != nil || out[0] != 3 {
		t.Fatalf("single-update bulyan: %v %v", out, err)
	}
}

func TestBulyanUnanimous(t *testing.T) {
	v := tensor.Vector{1, 2, 3}
	updates := []tensor.Vector{v.Clone(), v.Clone(), v.Clone(), v.Clone(), v.Clone(), v.Clone()}
	out, err := Bulyan{F: 1}.Aggregate(updates)
	if err != nil {
		t.Fatal(err)
	}
	if tensor.Distance(out, v) > 1e-9 {
		t.Fatalf("bulyan drifted on unanimous input: %v", out)
	}
}

func TestNormBoundCapsOutlierInfluence(t *testing.T) {
	r := rng.New(11)
	honest := honestPopulation(r, 9, 4, center(4, 1), 0.05)
	updates := append([]tensor.Vector{}, honest...)
	updates = append(updates, center(4, 1e6)) // huge-norm attack
	bounded, err := NormBound{}.Aggregate(updates)
	if err != nil {
		t.Fatal(err)
	}
	plain, _ := Mean{}.Aggregate(updates)
	dBounded := tensor.Distance(bounded, center(4, 1))
	dPlain := tensor.Distance(plain, center(4, 1))
	if dBounded >= dPlain/100 {
		t.Fatalf("norm bound barely helped: %v vs %v", dBounded, dPlain)
	}
}

func TestNormBoundPreservesHonestMean(t *testing.T) {
	r := rng.New(12)
	updates := honestPopulation(r, 8, 4, center(4, 2), 0.01)
	out, err := NormBound{Factor: 2}.Aggregate(updates)
	if err != nil {
		t.Fatal(err)
	}
	mean, _ := Mean{}.Aggregate(updates)
	if tensor.Distance(out, mean) > 0.01 {
		t.Fatal("norm bound distorted an honest population")
	}
}

func TestNormBoundAllZero(t *testing.T) {
	updates := []tensor.Vector{tensor.NewVector(3), tensor.NewVector(3)}
	out, err := NormBound{}.Aggregate(updates)
	if err != nil {
		t.Fatal(err)
	}
	if tensor.Norm2(out) != 0 {
		t.Fatal("zero updates produced non-zero aggregate")
	}
}

// bulyanReference is Bulyan written the plain way — full sorts, no scratch,
// no kernels: iterated Krum picks the best-scored survivor until n-2f are
// chosen, then each coordinate averages the beta chosen values closest to
// their median, ties going to the earlier pick.
func bulyanReference(updates []tensor.Vector, f int) tensor.Vector {
	alive := make([]int, len(updates))
	for i := range alive {
		alive[i] = i
	}
	selCount := max(len(updates)-2*f, 1)
	var chosen []tensor.Vector
	for len(chosen) < selCount {
		best, bestScore := 0, math.Inf(1)
		for ai, i := range alive {
			var ds []float64
			for _, j := range alive {
				if j != i {
					ds = append(ds, tensor.SquaredDistance(updates[i], updates[j]))
				}
			}
			sort.Float64s(ds)
			score := 0.0
			for _, d := range ds[:min(max(len(alive)-f-2, 1), len(ds))] {
				score += d
			}
			if score < bestScore {
				best, bestScore = ai, score
			}
		}
		chosen = append(chosen, updates[alive[best]])
		alive = append(alive[:best], alive[best+1:]...)
	}
	beta := max(len(chosen)-2*f, 1)
	out := tensor.NewVector(len(updates[0]))
	col := make([]float64, len(chosen))
	for j := range out {
		for i, v := range chosen {
			col[i] = v[j]
		}
		med := tensor.Median(col)
		sort.SliceStable(col, func(a, b int) bool { return math.Abs(col[a]-med) < math.Abs(col[b]-med) })
		s := 0.0
		for _, v := range col[:beta] {
			s += v
		}
		out[j] = s / float64(beta)
	}
	return out
}

// TestBulyanMatchesReference holds Bulyan to the plain formulation at the
// paper's cluster size (n = 4, f = 1: two updates survive, beta = 1, so the
// result must be the best-scored update itself) and at a size where the
// second stage really averages.
func TestBulyanMatchesReference(t *testing.T) {
	for _, tc := range []struct{ n, f, dim int }{{4, 1, 300}, {11, 2, 300}} {
		r := rng.New(uint64(40 + tc.n))
		updates := honestPopulation(r, tc.n-tc.f, tc.dim, center(tc.dim, 1), 0.3)
		updates = append(updates, honestPopulation(r, tc.f, tc.dim, center(tc.dim, -4), 0.3)...)
		want := bulyanReference(updates, tc.f)
		for _, workers := range []int{1, 4} {
			got := tensor.NewVector(tc.dim)
			if err := (Bulyan{F: tc.f}).AggregateInto(got, NewScratch(workers), updates); err != nil {
				t.Fatal(err)
			}
			for j := range want {
				if math.Abs(got[j]-want[j]) > 1e-12 {
					t.Fatalf("n=%d f=%d workers=%d: coordinate %d is %v, reference %v", tc.n, tc.f, workers, j, got[j], want[j])
				}
			}
		}
	}
}
