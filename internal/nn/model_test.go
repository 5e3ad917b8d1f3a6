package nn

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"abdhfl/internal/dataset"
	"abdhfl/internal/rng"
	"abdhfl/internal/tensor"
)

func TestNewShapes(t *testing.T) {
	m := New(rng.New(1), 64, 32, 10)
	if m.Layers() != 2 {
		t.Fatalf("layers = %d", m.Layers())
	}
	if m.Weights[0].Rows != 32 || m.Weights[0].Cols != 64 {
		t.Fatalf("W0 shape %dx%d", m.Weights[0].Rows, m.Weights[0].Cols)
	}
	if m.Weights[1].Rows != 10 || m.Weights[1].Cols != 32 {
		t.Fatalf("W1 shape %dx%d", m.Weights[1].Rows, m.Weights[1].Cols)
	}
	want := 64*32 + 32 + 32*10 + 10
	if m.NumParams() != want {
		t.Fatalf("NumParams = %d, want %d", m.NumParams(), want)
	}
}

func TestParamsRoundTrip(t *testing.T) {
	m := New(rng.New(2), 8, 6, 4)
	p := m.Params()
	if len(p) != m.NumParams() {
		t.Fatalf("Params len = %d", len(p))
	}
	m2 := New(rng.New(99), 8, 6, 4)
	m2.SetParams(p)
	p2 := m2.Params()
	for i := range p {
		if p[i] != p2[i] {
			t.Fatalf("round trip differs at %d", i)
		}
	}
	// Outputs must also match.
	x := tensor.Vector{1, 2, 3, 4, 5, 6, 7, 8}
	a, b := m.Forward(x), m2.Forward(x)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("round-tripped model output differs")
		}
	}
}

// TestInitParamsIntoMatchesNew pins InitParamsInto to the model New builds:
// bit-equal parameters for three shapes and two seeds, whether dst is nil,
// too short, or long enough (and dirty, so zero biases must be written).
func TestInitParamsIntoMatchesNew(t *testing.T) {
	for _, sizes := range [][]int{{8, 4}, {64, 32, 10}, {12, 9, 7, 3}} {
		for _, seed := range []uint64{1, 42} {
			want := New(rng.New(seed).Derive("init"), sizes...).Params()
			dirty := make(tensor.Vector, len(want)+3)
			for i := range dirty {
				dirty[i] = math.NaN()
			}
			for _, dst := range []tensor.Vector{nil, make(tensor.Vector, 1), dirty} {
				got := InitParamsInto(dst, rng.New(seed).Derive("init"), sizes...)
				if len(got) != len(want) {
					t.Fatalf("sizes %v seed %d: %d params, want %d", sizes, seed, len(got), len(want))
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("sizes %v seed %d: param %d is %v, want %v", sizes, seed, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func TestSetParamsLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(rng.New(1), 4, 2).SetParams(tensor.NewVector(3))
}

func TestSoftmaxSumsToOne(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		logits := tensor.NewVector(10)
		for i := range logits {
			logits[i] = r.NormFloat64() * 10
		}
		p := Softmax(tensor.NewVector(10), logits)
		sum := 0.0
		for _, v := range p {
			if v < 0 || v > 1 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxStableWithLargeLogits(t *testing.T) {
	p := Softmax(tensor.NewVector(3), tensor.Vector{1000, 1001, 999})
	if !tensor.AllFinite(p) {
		t.Fatal("softmax overflowed")
	}
	if tensor.ArgMax(p) != 1 {
		t.Fatal("softmax argmax wrong")
	}
}

func TestBackwardGradientCheck(t *testing.T) {
	// Numerical gradient check on a tiny network.
	r := rng.New(5)
	m := New(r, 4, 3, 2)
	x := tensor.Vector{0.5, -0.2, 0.8, 0.1}
	label := 1

	g := NewGrads(m)
	m.Backward(g, x, label)
	analytic := flattenGrads(m, g)

	const eps = 1e-6
	p := m.Params()
	for i := 0; i < len(p); i += 3 { // sample every third parameter for speed
		orig := p[i]
		p[i] = orig + eps
		m.SetParams(p)
		lp := sampleLoss(m, x, label)
		p[i] = orig - eps
		m.SetParams(p)
		lm := sampleLoss(m, x, label)
		p[i] = orig
		m.SetParams(p)
		numeric := (lp - lm) / (2 * eps)
		if math.Abs(numeric-analytic[i]) > 1e-4*(1+math.Abs(numeric)) {
			t.Fatalf("grad mismatch at %d: analytic %v numeric %v", i, analytic[i], numeric)
		}
	}
}

func flattenGrads(m *Model, g *Grads) tensor.Vector {
	out := make(tensor.Vector, 0, m.NumParams())
	for l := range g.Weights {
		out = append(out, g.Weights[l].Data...)
		out = append(out, g.Biases[l]...)
	}
	return out
}

func sampleLoss(m *Model, x tensor.Vector, label int) float64 {
	logits := m.Forward(x)
	probs := Softmax(tensor.NewVector(len(logits)), logits)
	return -math.Log(math.Max(probs[label], 1e-12))
}

func TestStepMovesAgainstGradient(t *testing.T) {
	r := rng.New(6)
	m := New(r, 4, 3, 2)
	x := tensor.Vector{1, 0, -1, 0.5}
	before := sampleLoss(m, x, 0)
	for i := 0; i < 20; i++ {
		g := NewGrads(m)
		m.Backward(g, x, 0)
		m.Step(g, 0.5, 1)
	}
	after := sampleLoss(m, x, 0)
	if after >= before {
		t.Fatalf("loss did not decrease: %v -> %v", before, after)
	}
}

func TestCloneIndependent(t *testing.T) {
	m := New(rng.New(7), 4, 2)
	c := m.Clone()
	c.Weights[0].Data[0] = 42
	if m.Weights[0].Data[0] == 42 {
		t.Fatal("Clone shares weights")
	}
}

func TestSGDLearnsSeparableTask(t *testing.T) {
	// Train on the synthetic digits and expect clearly-above-chance accuracy
	// after modest training.
	r := rng.New(8)
	gen := dataset.DefaultGen()
	train := dataset.Generate(r.Derive("train"), 2000, gen)
	test := dataset.Generate(r.Derive("test"), 1000, gen)
	m := New(r.Derive("init"), dataset.Dim, 32, dataset.NumClasses)
	cfg := TrainConfig{LearningRate: 0.1, BatchSize: 32, Iterations: 300}
	SGD(m, train, cfg, r.Derive("sgd"))
	acc := Accuracy(m, test)
	if acc < 0.6 {
		t.Fatalf("accuracy after training = %v, want > 0.6", acc)
	}
}

func TestSGDEmptyDataset(t *testing.T) {
	m := New(rng.New(9), 4, 2)
	loss := SGD(m, &dataset.Dataset{}, DefaultTrain(), rng.New(1))
	if loss != 0 {
		t.Fatalf("loss on empty dataset = %v", loss)
	}
}

func TestSGDSmallDatasetBatchClamp(t *testing.T) {
	r := rng.New(10)
	d := dataset.Generate(r, 5, dataset.DefaultGen())
	m := New(r, dataset.Dim, 8, dataset.NumClasses)
	// BatchSize 32 > 5 samples must not panic.
	SGD(m, d, TrainConfig{LearningRate: 0.1, BatchSize: 32, Iterations: 3}, r)
}

func TestAccuracyBounds(t *testing.T) {
	r := rng.New(11)
	d := dataset.Generate(r, 100, dataset.DefaultGen())
	m := New(r, dataset.Dim, 8, dataset.NumClasses)
	acc := Accuracy(m, d)
	if acc < 0 || acc > 1 {
		t.Fatalf("accuracy out of range: %v", acc)
	}
	if Accuracy(m, &dataset.Dataset{}) != 0 {
		t.Fatal("accuracy on empty dataset should be 0")
	}
}

func TestLossDecreasesWithTraining(t *testing.T) {
	r := rng.New(12)
	d := dataset.Generate(r.Derive("d"), 500, dataset.DefaultGen())
	m := New(r.Derive("m"), dataset.Dim, 16, dataset.NumClasses)
	before := Loss(m, d)
	SGD(m, d, TrainConfig{LearningRate: 0.1, BatchSize: 32, Iterations: 100}, r.Derive("t"))
	after := Loss(m, d)
	if after >= before {
		t.Fatalf("loss did not decrease: %v -> %v", before, after)
	}
}

func BenchmarkBackward(b *testing.B) {
	r := rng.New(1)
	m := New(r, dataset.Dim, 32, dataset.NumClasses)
	x := dataset.Sample(r, 3, dataset.DefaultGen())
	g := NewGrads(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Backward(g, x, 3)
	}
}

func BenchmarkLocalRound(b *testing.B) {
	// One client's local training round at the paper's settings.
	r := rng.New(1)
	d := dataset.Generate(r, 937, dataset.DefaultGen())
	m := New(r, dataset.Dim, 32, dataset.NumClasses)
	cfg := DefaultTrain()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SGD(m, d, cfg, r)
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	r := rng.New(51)
	m := New(r, dataset.Dim, 16, dataset.NumClasses)
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := ReadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	p1, p2 := m.Params(), m2.Params()
	if len(p1) != len(p2) {
		t.Fatal("param count changed")
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("param %d differs", i)
		}
	}
	// Same predictions.
	x := dataset.Sample(r, 5, dataset.DefaultGen())
	if m.Predict(x) != m2.Predict(x) {
		t.Fatal("round-tripped model predicts differently")
	}
}

func TestReadModelRejectsGarbage(t *testing.T) {
	if _, err := ReadModel(bytes.NewReader([]byte("not a model at all"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadModel(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty stream accepted")
	}
}

func TestReadModelRejectsTruncated(t *testing.T) {
	m := New(rng.New(52), 4, 3, 2)
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	if _, err := ReadModel(bytes.NewReader(full[:len(full)/2])); err == nil {
		t.Fatal("truncated stream accepted")
	}
}

func TestReadModelRejectsNaN(t *testing.T) {
	m := New(rng.New(53), 4, 2)
	m.Weights[0].Data[0] = math.NaN()
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadModel(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("NaN parameters accepted")
	}
}

func TestMomentumAcceleratesConvergence(t *testing.T) {
	r := rng.New(54)
	d := dataset.Generate(r.Derive("d"), 800, dataset.DefaultGen())
	run := func(momentum float64) float64 {
		m := New(rng.New(55), dataset.Dim, 16, dataset.NumClasses)
		cfg := TrainConfig{LearningRate: 0.05, BatchSize: 32, Iterations: 120, Momentum: momentum}
		SGD(m, d, cfg, rng.New(56))
		return Loss(m, d)
	}
	plain := run(0)
	fast := run(0.9)
	if fast >= plain {
		t.Fatalf("momentum loss %v not below plain %v", fast, plain)
	}
}

func TestWeightDecayShrinksNorm(t *testing.T) {
	r := rng.New(57)
	d := dataset.Generate(r.Derive("d"), 400, dataset.DefaultGen())
	norm := func(wd float64) float64 {
		m := New(rng.New(58), dataset.Dim, 16, dataset.NumClasses)
		cfg := TrainConfig{LearningRate: 0.1, BatchSize: 32, Iterations: 200, WeightDecay: wd}
		SGD(m, d, cfg, rng.New(59))
		return tensor.Norm2(m.Params())
	}
	if norm(0.01) >= norm(0) {
		t.Fatal("weight decay did not shrink the parameter norm")
	}
}
