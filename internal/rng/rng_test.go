package rng

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := New(7)
	s1 := r.Split()
	s2 := r.Split()
	if s1.Uint64() == s2.Uint64() {
		t.Fatal("consecutive splits produced identical first outputs")
	}
}

func TestDeriveOrderIndependent(t *testing.T) {
	r1 := New(99)
	r2 := New(99)
	// Derivation in different orders must yield the same sub-streams.
	a1 := r1.Derive("alpha").Uint64()
	b1 := r1.Derive("beta").Uint64()
	b2 := r2.Derive("beta").Uint64()
	a2 := r2.Derive("alpha").Uint64()
	if a1 != a2 || b1 != b2 {
		t.Fatal("Derive is not order independent")
	}
	if a1 == b1 {
		t.Fatal("different labels collided")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(5)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnRange(t *testing.T) {
	r := New(11)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) covered only %d values", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(8)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := r.NormFloat64()
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("gaussian mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("gaussian variance = %v, want ~1", variance)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := New(13)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		x := r.ExpFloat64()
		if x < 0 {
			t.Fatalf("exponential sample negative: %v", x)
		}
		sum += x
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Fatalf("exponential mean = %v, want ~1", mean)
	}
}

func TestLogNormalPositive(t *testing.T) {
	r := New(17)
	for i := 0; i < 1000; i++ {
		if v := r.LogNormal(0, 0.5); v <= 0 {
			t.Fatalf("lognormal sample non-positive: %v", v)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	check := func(seed uint64, n uint8) bool {
		size := int(n%64) + 1
		p := New(seed).Perm(size)
		if len(p) != size {
			return false
		}
		seen := make([]bool, size)
		for _, v := range p {
			if v < 0 || v >= size || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestChoiceDistinct(t *testing.T) {
	check := func(seed uint64, n, k uint8) bool {
		size := int(n%32) + 1
		kk := int(k) % (size + 1)
		c := New(seed).Choice(size, kk)
		if len(c) != kk {
			return false
		}
		seen := make(map[int]bool)
		for _, v := range c {
			if v < 0 || v >= size || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShuffleKeepsMultiset(t *testing.T) {
	r := New(23)
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, v := range xs {
		sum += v
	}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	got := 0
	for _, v := range xs {
		got += v
	}
	if got != sum {
		t.Fatalf("shuffle changed multiset: sum %d -> %d", sum, got)
	}
}

func TestZeroValueUsable(t *testing.T) {
	var r RNG
	_ = r.Uint64()
	_ = r.Float64()
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkNormFloat64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.NormFloat64()
	}
}

func TestDeriveNDoesNotAdvance(t *testing.T) {
	a := New(99)
	b := New(99)
	_ = a.DeriveN("device", 7)
	_ = a.DeriveN("device", 8)
	if a.Uint64() != b.Uint64() {
		t.Fatal("DeriveN advanced the parent stream")
	}
}

func TestDeriveNDistinctStreams(t *testing.T) {
	r := New(5)
	seen := map[uint64]string{}
	for i := uint64(0); i < 1000; i++ {
		v := r.DeriveN("device", i).Uint64()
		if prev, dup := seen[v]; dup {
			t.Fatalf("DeriveN collision: index %d equals %s", i, prev)
		}
		seen[v] = "device"
	}
	if r.DeriveN("device", 3).Uint64() == r.DeriveN("cohort", 3).Uint64() {
		t.Fatal("different labels produced the same stream")
	}
	// Deterministic: re-deriving yields the same stream.
	if r.DeriveN("device", 3).Uint64() != r.DeriveN("device", 3).Uint64() {
		t.Fatal("DeriveN not deterministic")
	}
}

func TestPermIntoMatchesPerm(t *testing.T) {
	a := New(11)
	b := New(11)
	want := a.Perm(50)
	got := make([]int, 50)
	b.PermInto(got)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("PermInto diverges from Perm at %d: %d != %d", i, got[i], want[i])
		}
	}
}

func TestChoiceIntoUniformAndDistinct(t *testing.T) {
	r := New(17)
	const n, k, trials = 20, 5, 20000
	counts := make([]int, n)
	dst := make([]int, k)
	scratch := make([]int, n)
	for trial := 0; trial < trials; trial++ {
		r.ChoiceInto(dst, n, scratch)
		seen := map[int]bool{}
		for _, v := range dst {
			if v < 0 || v >= n {
				t.Fatalf("out of range: %d", v)
			}
			if seen[v] {
				t.Fatalf("duplicate %d in draw %v", v, dst)
			}
			seen[v] = true
			counts[v]++
		}
	}
	// Each index should appear ~ trials*k/n times; allow 10%.
	want := float64(trials*k) / n
	for i, c := range counts {
		if float64(c) < 0.9*want || float64(c) > 1.1*want {
			t.Fatalf("index %d drawn %d times, want ~%.0f", i, c, want)
		}
	}
}

func TestChoiceIntoPanics(t *testing.T) {
	r := New(1)
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("k>n", func() { r.ChoiceInto(make([]int, 5), 3, make([]int, 5)) })
	mustPanic("short scratch", func() { r.ChoiceInto(make([]int, 2), 10, make([]int, 4)) })
}

// TestDeriveStreamsPinned pins the derived streams to the values the
// repository's goldens were generated with: Derive and DeriveN may change
// shape, never output.
func TestDeriveStreamsPinned(t *testing.T) {
	r := New(42)
	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{"Derive", r.Derive("x").Uint64(), 0x8ad1cd337b801639},
		{"DeriveN", r.DeriveN("x", 7).Uint64(), 0xf52bcb68bf3b9243},
		{"chained", r.DeriveN("round", 1<<40|3).DeriveN("upd", 99).Uint64(), 0x781a4eac40fe7d67},
	} {
		if c.got != c.want {
			t.Errorf("%s: first output %#x, want %#x", c.name, c.got, c.want)
		}
	}
}

// TestDeriveDecimalIsDeriveOfTheDecimalLabel holds DeriveDecimal to its
// contract over every index the engines use and then some: its stream is
// Derive's on the formatted label, so swapping one for the other moves no
// golden.
func TestDeriveDecimalIsDeriveOfTheDecimalLabel(t *testing.T) {
	r := New(42)
	check := func(label string, n int) {
		if got, want := r.DeriveDecimal(label, n).Uint64(), r.Derive(fmt.Sprint(label, n)).Uint64(); got != want {
			t.Fatalf("DeriveDecimal(%q, %d) = %#x, Derive(%q) = %#x", label, n, got, fmt.Sprint(label, n), want)
		}
	}
	for n := 0; n <= 100_000; n++ {
		check("device-", n)
	}
	for _, n := range []int{-1, -10, -12345, math.MaxInt, math.MinInt} {
		check("round-", n)
	}
	check("", 7)
}

// TestDeriveDecimalsIsDeriveOfTheFormattedLabel holds DeriveDecimals to its
// contract: over a grid of labels and of one to three indices, negatives and
// the int extremes included, its stream is Derive's on the label the engines
// used to format, "tdur-%d-%d" and its kin.
func TestDeriveDecimalsIsDeriveOfTheFormattedLabel(t *testing.T) {
	r := New(42)
	idx := []int{0, 1, 9, 10, 99, 100, 12345, -1, -10, -12345, math.MaxInt, math.MinInt}
	for _, label := range []string{"tdur-", "adur-", "quorum-", "cba-", "vote-", ""} {
		check := func(formatted string, ns ...int) {
			if got, want := r.DeriveDecimals(label, ns...).Uint64(), r.Derive(formatted).Uint64(); got != want {
				t.Fatalf("DeriveDecimals(%q, %v) = %#x, Derive(%q) = %#x", label, ns, got, formatted, want)
			}
		}
		check(label)
		for _, a := range idx {
			check(fmt.Sprintf("%s%d", label, a), a)
			for _, b := range idx {
				check(fmt.Sprintf("%s%d-%d", label, a, b), a, b)
				for _, c := range idx[:6] {
					check(fmt.Sprintf("%s%d-%d-%d", label, a, b, c), a, b, c)
				}
			}
		}
	}
	if got, want := r.DeriveDecimals("round-", 7).Uint64(), r.DeriveDecimal("round-", 7).Uint64(); got != want {
		t.Fatalf("DeriveDecimals with one index = %#x, DeriveDecimal = %#x", got, want)
	}
}

// TestDeriveStaysOnStack holds the reason Derive, DeriveDecimal,
// DeriveDecimals and DeriveN are one-line wrappers: a derived generator that
// does not escape costs no allocation. A compiler that stops inlining them
// fails here instead of silently adding an allocation per derived stream
// (10 MB per 100k-device scale cell).
func TestDeriveStaysOnStack(t *testing.T) {
	r := New(1)
	var sink uint64
	var fsink float64
	if n := testing.AllocsPerRun(100, func() { sink += r.Derive("x").Uint64() }); n != 0 {
		t.Errorf("Derive: %v allocs per call, want 0", n)
	}
	i := uint64(0)
	if n := testing.AllocsPerRun(100, func() { i++; fsink += r.DeriveN("x", i).Float64() }); n != 0 {
		t.Errorf("DeriveN: %v allocs per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { i++; fsink += r.DeriveN("round", i).DeriveN("upd", i).NormFloat64() }); n != 0 {
		t.Errorf("chained DeriveN: %v allocs per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		i++
		fsink += r.DeriveDecimal("round-", int(i)).DeriveDecimal("device-", int(i)).NormFloat64()
	}); n != 0 {
		t.Errorf("chained DeriveDecimal: %v allocs per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { i++; fsink += r.DeriveDecimals("adur-", int(i), 2, -int(i)).Float64() }); n != 0 {
		t.Errorf("DeriveDecimals: %v allocs per call, want 0", n)
	}
	_, _ = sink, fsink
}
