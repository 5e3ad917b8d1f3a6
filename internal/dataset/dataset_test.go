package dataset

import (
	"testing"
	"testing/quick"

	"abdhfl/internal/rng"
	"abdhfl/internal/tensor"
)

func TestGenerateBalancedLabels(t *testing.T) {
	d := Generate(rng.New(1), 1000, DefaultGen())
	h := d.LabelHistogram()
	for c, n := range h {
		if n != 100 {
			t.Fatalf("class %d has %d samples, want 100", c, n)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(rng.New(7), 100, DefaultGen())
	b := Generate(rng.New(7), 100, DefaultGen())
	for i := range a.X {
		if a.Y[i] != b.Y[i] {
			t.Fatalf("labels diverge at %d", i)
		}
		for j := range a.X[i] {
			if a.X[i][j] != b.X[i][j] {
				t.Fatalf("features diverge at sample %d coord %d", i, j)
			}
		}
	}
}

func TestSampleDimensions(t *testing.T) {
	x := Sample(rng.New(2), 3, DefaultGen())
	if len(x) != Dim {
		t.Fatalf("sample dim = %d, want %d", len(x), Dim)
	}
	if !tensor.AllFinite(x) {
		t.Fatal("sample has non-finite values")
	}
}

func TestSampleInvalidClassPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Sample(rng.New(1), 10, DefaultGen())
}

func TestPrototypesDistinct(t *testing.T) {
	for a := 0; a < NumClasses; a++ {
		for b := a + 1; b < NumClasses; b++ {
			if tensor.Distance(Prototype(a), Prototype(b)) < 1 {
				t.Fatalf("prototypes %d and %d nearly identical", a, b)
			}
		}
	}
}

func TestNoiselessNearestPrototype(t *testing.T) {
	// Without noise/jitter/scale a sample is exactly the prototype.
	cfg := GenConfig{}
	for c := 0; c < NumClasses; c++ {
		x := Sample(rng.New(uint64(c)), c, cfg)
		if tensor.Distance(x, Prototype(c)) != 0 {
			t.Fatalf("noiseless sample of class %d differs from prototype", c)
		}
	}
}

func TestCloneDeep(t *testing.T) {
	d := Generate(rng.New(3), 10, DefaultGen())
	c := d.Clone()
	c.X[0][0] = 999
	c.Y[1] = 0
	if d.X[0][0] == 999 {
		t.Fatal("Clone shares feature storage")
	}
}

func TestSubsetSharesFeatures(t *testing.T) {
	d := Generate(rng.New(3), 10, DefaultGen())
	s := d.Subset([]int{0, 5})
	if s.Len() != 2 {
		t.Fatalf("subset len = %d", s.Len())
	}
	s.X[0][0] = 123
	if d.X[0][0] != 123 {
		t.Fatal("Subset should share feature vectors")
	}
}

func TestPartitionIIDSizes(t *testing.T) {
	d := Generate(rng.New(4), 640, DefaultGen())
	parts := PartitionIID(rng.New(5), d, 64)
	if len(parts) != 64 {
		t.Fatalf("parts = %d", len(parts))
	}
	total := 0
	for _, p := range parts {
		total += p.Len()
		if p.Len() < 10 {
			t.Fatalf("client shard too small: %d", p.Len())
		}
	}
	if total != 640 {
		t.Fatalf("partition lost samples: %d", total)
	}
}

func TestPartitionIIDCoversAllSamples(t *testing.T) {
	check := func(seed uint64) bool {
		d := Generate(rng.New(seed), 200, DefaultGen())
		parts := PartitionIID(rng.New(seed+1), d, 7)
		total := 0
		for _, p := range parts {
			total += p.Len()
		}
		return total == 200
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionNonIIDLabelCount(t *testing.T) {
	d := Generate(rng.New(6), 6400, DefaultGen())
	parts := PartitionNonIID(rng.New(7), d, 64, 2)
	for c, p := range parts {
		h := p.LabelHistogram()
		labels := 0
		for _, n := range h {
			if n > 0 {
				labels++
			}
		}
		if labels != 2 {
			t.Fatalf("client %d holds %d labels, want 2", c, labels)
		}
	}
}

func TestPartitionNonIIDSuffixCoverage(t *testing.T) {
	// The paper requires honest clients (a suffix of ids in our harness) to
	// jointly cover all labels. Check coverage of every suffix of length >= 5.
	d := Generate(rng.New(8), 6400, DefaultGen())
	parts := PartitionNonIID(rng.New(9), d, 64, 2)
	for start := 0; start <= 64-5; start++ {
		var covered [NumClasses]bool
		for c := start; c < 64; c++ {
			h := parts[c].LabelHistogram()
			for l, n := range h {
				if n > 0 {
					covered[l] = true
				}
			}
		}
		for l, ok := range covered {
			if !ok {
				t.Fatalf("suffix from %d misses label %d", start, l)
			}
		}
	}
}

func TestPartitionNonIIDNonEmpty(t *testing.T) {
	d := Generate(rng.New(10), 3200, DefaultGen())
	parts := PartitionNonIID(rng.New(11), d, 32, 2)
	for c, p := range parts {
		if p.Len() == 0 {
			t.Fatalf("client %d empty", c)
		}
	}
}

func TestPartitionDirichletConserves(t *testing.T) {
	d := Generate(rng.New(12), 2000, DefaultGen())
	parts := PartitionDirichlet(rng.New(13), d, 10, 0.5)
	total := 0
	for _, p := range parts {
		total += p.Len()
	}
	if total != 2000 {
		t.Fatalf("dirichlet partition lost samples: %d", total)
	}
}

func TestPartitionDirichletSkewByAlpha(t *testing.T) {
	d := Generate(rng.New(14), 5000, DefaultGen())
	skew := func(alpha float64) float64 {
		parts := PartitionDirichlet(rng.New(15), d, 10, alpha)
		// Average per-client max-label share; higher = more skewed.
		s := 0.0
		for _, p := range parts {
			h := p.LabelHistogram()
			maxN := 0
			for _, n := range h {
				if n > maxN {
					maxN = n
				}
			}
			if p.Len() > 0 {
				s += float64(maxN) / float64(p.Len())
			}
		}
		return s / 10
	}
	if skew(0.1) <= skew(100) {
		t.Fatalf("alpha=0.1 skew %v not above alpha=100 skew %v", skew(0.1), skew(100))
	}
}

func TestLabelHistogramSum(t *testing.T) {
	d := Generate(rng.New(16), 333, DefaultGen())
	h := d.LabelHistogram()
	total := 0
	for _, n := range h {
		total += n
	}
	if total != 333 {
		t.Fatalf("histogram total = %d", total)
	}
}

func BenchmarkGenerate1000(b *testing.B) {
	cfg := DefaultGen()
	for i := 0; i < b.N; i++ {
		_ = Generate(rng.New(uint64(i)), 1000, cfg)
	}
}

func BenchmarkPartitionNonIID(b *testing.B) {
	d := Generate(rng.New(1), 6400, DefaultGen())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = PartitionNonIID(rng.New(uint64(i)), d, 64, 2)
	}
}
