package nn

import (
	"math"
	"testing"

	"abdhfl/internal/dataset"
	"abdhfl/internal/rng"
	"abdhfl/internal/tensor"
)

// BenchmarkDeviceRound is one device activation as the engines run it: load
// the global model, run the paper's 5 local iterations at batch 32 on a
// 100-sample shard.
func BenchmarkDeviceRound(b *testing.B) {
	r := rng.New(1)
	d := dataset.Generate(r, 100, dataset.DefaultGen())
	m := New(r, dataset.Dim, 32, dataset.NumClasses)
	init := m.Params()
	ws := NewWorkspace(m)
	cfg := DefaultTrain()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.SetParams(init)
		SGDWS(m, ws, d, cfg, r)
	}
	b.ReportMetric(float64(b.N)*160/b.Elapsed().Seconds(), "samples/s")
}

// BenchmarkEvaluate is one per-round test-set evaluation (400 samples).
func BenchmarkEvaluate(b *testing.B) {
	r := rng.New(1)
	d := dataset.Generate(r, 400, dataset.DefaultGen())
	m := New(r, dataset.Dim, 32, dataset.NumClasses)
	ws := NewWorkspace(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EvaluateWS(m, ws, d)
	}
	b.ReportMetric(float64(b.N)*400/b.Elapsed().Seconds(), "samples/s")
}

// Reference implementations: the per-sample forward, backward, trainer and
// evaluator the tiled code replaced, on plain loops (one accumulator per
// output, one rank-1 update per sample, branchy ReLU). They define the
// result; the tiled paths must reproduce them bit for bit.

func refForward(m *Model, x tensor.Vector) []tensor.Vector {
	acts := []tensor.Vector{x}
	for l, w := range m.Weights {
		z := tensor.NewVector(w.Rows)
		for i := range z {
			s := 0.0
			for j, a := range acts[l] {
				s += w.Data[i*w.Cols+j] * a
			}
			z[i] = s
		}
		tensor.Add(z, z, m.Biases[l])
		if l < len(m.Weights)-1 {
			for i, v := range z {
				if v < 0 {
					z[i] = 0
				}
			}
		}
		acts = append(acts, z)
	}
	return acts
}

func refBackward(m *Model, g *Grads, x tensor.Vector, label int) float64 {
	L := m.Layers()
	acts := refForward(m, x)
	delta := Softmax(tensor.NewVector(m.Sizes[L]), acts[L])
	loss := -ln(max64(delta[label], 1e-12))
	delta[label] -= 1
	for l := L - 1; l >= 0; l-- {
		w, gw := m.Weights[l], g.Weights[l]
		for i, d := range delta {
			if sx := 1 * d; sx != 0 {
				for j, a := range acts[l] {
					gw.Data[i*gw.Cols+j] += sx * a
				}
			}
		}
		tensor.Axpy(g.Biases[l], 1, delta)
		if l == 0 {
			break
		}
		prev := tensor.NewVector(w.Cols)
		for i, d := range delta {
			if d == 0 {
				continue
			}
			for j := range prev {
				prev[j] += w.Data[i*w.Cols+j] * d
			}
		}
		for i, a := range acts[l] {
			if a <= 0 {
				prev[i] = 0
			}
		}
		delta = prev
	}
	return loss
}

func refSGD(m *Model, d *dataset.Dataset, cfg TrainConfig, r *rng.RNG) float64 {
	if d.Len() == 0 {
		return 0
	}
	batch := cfg.BatchSize
	if batch > d.Len() {
		batch = d.Len()
	}
	g, vel := NewGrads(m), NewGrads(m)
	totalLoss := 0.0
	for it := 0; it < cfg.Iterations; it++ {
		g.Zero()
		for b := 0; b < batch; b++ {
			i := r.Intn(d.Len())
			totalLoss += refBackward(m, g, d.X[i], d.Y[i])
		}
		if cfg.WeightDecay > 0 {
			s := cfg.WeightDecay * float64(batch)
			for l := range g.Weights {
				tensor.Axpy(tensor.Vector(g.Weights[l].Data), s, tensor.Vector(m.Weights[l].Data))
				tensor.Axpy(g.Biases[l], s, m.Biases[l])
			}
		}
		step := g
		if cfg.Momentum > 0 {
			for l := range vel.Weights {
				tensor.Scale(tensor.Vector(vel.Weights[l].Data), cfg.Momentum, tensor.Vector(vel.Weights[l].Data))
				tensor.Axpy(tensor.Vector(vel.Weights[l].Data), 1, tensor.Vector(g.Weights[l].Data))
				tensor.Scale(vel.Biases[l], cfg.Momentum, vel.Biases[l])
				tensor.Axpy(vel.Biases[l], 1, g.Biases[l])
			}
			step = vel
		}
		m.Step(step, cfg.LearningRate, batch)
	}
	return totalLoss / float64(cfg.Iterations*batch)
}

// refEvalRange is the per-sample evaluation of [lo, hi).
func refEvalRange(m *Model, d *dataset.Dataset, lo, hi int) (int, float64) {
	correct, total := 0, 0.0
	probs := tensor.NewVector(m.Sizes[m.Layers()])
	for i := lo; i < hi; i++ {
		logits := refForward(m, d.X[i])[m.Layers()]
		if tensor.ArgMax(logits) == d.Y[i] {
			correct++
		}
		p := Softmax(probs, logits)[d.Y[i]]
		if p < 1e-12 {
			p = 1e-12
		}
		total += -ln(p)
	}
	return correct, total
}

func bitsEqual(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return len(a) == len(b)
}

func TestTileOfOneMatchesReference(t *testing.T) {
	r := rng.New(11)
	for _, sizes := range [][]int{{dataset.Dim, 32, dataset.NumClasses}, {5, 3, 2}, {7, 33, 10, 4}, {6, 1, 3}} {
		m := New(r, sizes...)
		ws := NewWorkspace(m)
		g, ref := NewGrads(m), NewGrads(m)
		for k := 0; k < 20; k++ {
			x, label := tensor.NewVector(sizes[0]), r.Intn(sizes[len(sizes)-1])
			for i := range x {
				x[i] = r.NormFloat64()
			}
			if !bitsEqual(m.ForwardWS(ws, x), refForward(m, x)[m.Layers()]) {
				t.Fatalf("%v: ForwardWS differs from the reference", sizes)
			}
			l1, l2 := m.BackwardWS(ws, g, x, label), refBackward(m, ref, x, label)
			if math.Float64bits(l1) != math.Float64bits(l2) {
				t.Fatalf("%v: BackwardWS loss %v, reference %v", sizes, l1, l2)
			}
			for l := range g.Weights {
				if !bitsEqual(g.Weights[l].Data, ref.Weights[l].Data) || !bitsEqual(g.Biases[l], ref.Biases[l]) {
					t.Fatalf("%v: BackwardWS layer %d gradient differs from the reference", sizes, l)
				}
			}
		}
	}
}

func TestSGDWSMatchesReferenceTrainer(t *testing.T) {
	shapes := [][]int{{dataset.Dim, 32, dataset.NumClasses}, {dataset.Dim, 5, 3, dataset.NumClasses}, {dataset.Dim, 33, dataset.NumClasses}}
	opts := []TrainConfig{
		{LearningRate: 0.1},
		{LearningRate: 0.05, Momentum: 0.9},
		{LearningRate: 0.1, WeightDecay: 1e-3},
		{LearningRate: 0.05, Momentum: 0.5, WeightDecay: 1e-4},
	}
	for si, sizes := range shapes {
		for _, samples := range []int{5, 100} { // 5: batch > dataset for most batch sizes
			d := dataset.Generate(rng.New(uint64(20+si)), samples, dataset.DefaultGen())
			for _, batch := range []int{1, 3, 4, 8, 32, 33} {
				for oi, cfg := range opts {
					cfg.BatchSize, cfg.Iterations = batch, 3
					got := New(rng.New(uint64(30+si)), sizes...)
					want := got.Clone()
					ws := NewWorkspace(got)
					r1, r2 := rng.New(uint64(40+oi)), rng.New(uint64(40+oi))
					// Twice on one workspace: the second run meets warm
					// gradient, momentum and tile buffers.
					for run := 0; run < 2; run++ {
						l1, l2 := SGDWS(got, ws, d, cfg, r1), refSGD(want, d, cfg, r2)
						if math.Float64bits(l1) != math.Float64bits(l2) {
							t.Fatalf("%v n=%d batch=%d opt=%d run %d: loss %v, reference %v", sizes, samples, batch, oi, run, l1, l2)
						}
						if !bitsEqual(got.Params(), want.Params()) {
							t.Fatalf("%v n=%d batch=%d opt=%d run %d: parameters differ from the reference", sizes, samples, batch, oi, run)
						}
					}
					if r1.Uint64() != r2.Uint64() {
						t.Fatalf("%v n=%d batch=%d opt=%d: SGDWS drew a different number of samples", sizes, samples, batch, oi)
					}
				}
			}
		}
	}
}

func TestEvaluationMatchesReference(t *testing.T) {
	m := New(rng.New(1), dataset.Dim, 32, dataset.NumClasses)
	ws := NewWorkspace(m)
	for _, n := range []int{1, 7, 8, 9, evalChunkSize - 1, evalChunkSize, evalChunkSize + 1, 2*evalChunkSize + 77} {
		d := dataset.Generate(rng.New(uint64(n)), n, dataset.DefaultGen())
		// Serial kernels: one running sum over the whole range.
		c, l := refEvalRange(m, d, 0, n)
		wantAcc, wantLoss := float64(c)/float64(n), l/float64(n)
		acc, loss := EvaluateWS(m, ws, d)
		if acc != wantAcc || math.Float64bits(loss) != math.Float64bits(wantLoss) {
			t.Fatalf("n=%d: EvaluateWS = (%v, %v), reference (%v, %v)", n, acc, loss, wantAcc, wantLoss)
		}
		if a := AccuracyWS(m, ws, d); a != wantAcc {
			t.Fatalf("n=%d: AccuracyWS = %v, reference %v", n, a, wantAcc)
		}
		if v := LossWS(m, ws, d); math.Float64bits(v) != math.Float64bits(wantLoss) {
			t.Fatalf("n=%d: LossWS = %v, reference %v", n, v, wantLoss)
		}
		for i, x := range d.X {
			if want := tensor.ArgMax(refForward(m, x)[m.Layers()]); m.PredictWS(ws, x) != want {
				t.Fatalf("n=%d: PredictWS(sample %d) differs from the reference", n, i)
			}
		}
		// Chunked kernels: per-chunk sums reduced in chunk order, whatever
		// the worker count.
		chunked := 0.0
		for lo := 0; lo < n; lo += evalChunkSize {
			_, cl := refEvalRange(m, d, lo, min(lo+evalChunkSize, n))
			chunked += cl
		}
		chunked /= float64(n)
		for _, workers := range []int{1, 2, 5} {
			acc, loss := Evaluate(m, d, workers)
			if acc != wantAcc || math.Float64bits(loss) != math.Float64bits(chunked) {
				t.Fatalf("n=%d workers=%d: Evaluate = (%v, %v), reference (%v, %v)", n, workers, acc, loss, wantAcc, chunked)
			}
			if a := AccuracyWorkers(m, d, workers); a != wantAcc {
				t.Fatalf("n=%d workers=%d: AccuracyWorkers = %v, reference %v", n, workers, a, wantAcc)
			}
			if v := LossWorkers(m, d, workers); math.Float64bits(v) != math.Float64bits(chunked) {
				t.Fatalf("n=%d workers=%d: LossWorkers = %v, reference %v", n, workers, v, chunked)
			}
		}
	}
}

// A non-finite input must still poison the update, so that the engines'
// ErrNonFinite / AllFinite guards fire exactly when they did per sample.
func TestNonFiniteInputReachesUpdate(t *testing.T) {
	d := dataset.Generate(rng.New(3), 16, dataset.DefaultGen())
	d.X[5] = d.X[5].Clone()
	d.X[5][9] = math.Inf(1)
	cfg := TrainConfig{LearningRate: 0.1, BatchSize: 16, Iterations: 2}
	got := New(rng.New(4), dataset.Dim, 32, dataset.NumClasses)
	want := got.Clone()
	SGDWS(got, NewWorkspace(got), d, cfg, rng.New(5))
	refSGD(want, d, cfg, rng.New(5))
	if tensor.AllFinite(got.Params()) {
		t.Fatal("an infinite input left the trained parameters finite")
	}
	// Which parameters went non-finite must match; a NaN's sign and payload
	// are the hardware's choice of operand, which Go does not pin down.
	for i, g := range got.Params() {
		w := want.Params()[i]
		if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			t.Fatalf("parameter %d = %v after non-finite training, reference %v", i, g, w)
		}
	}
}
