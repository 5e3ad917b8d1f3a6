package nn

import (
	"math"
	"runtime"
	"testing"

	"abdhfl/internal/dataset"
	"abdhfl/internal/rng"
	"abdhfl/internal/tensor"
)

// The workspace contract: with a warm Workspace the training and evaluation
// hot paths perform zero allocations per operation. These are regression
// tests — the seed implementation allocated per layer per sample (several
// hundred thousand allocs per simulated run), so any reappearing allocation
// here is a performance bug.

func allocModel() (*Model, *Workspace, *dataset.Dataset) {
	m := New(rng.New(1), dataset.Dim, 32, dataset.NumClasses)
	ws := NewWorkspace(m)
	d := dataset.Generate(rng.New(2), 64, dataset.DefaultGen())
	return m, ws, d
}

func TestForwardWSAllocationFree(t *testing.T) {
	m, ws, d := allocModel()
	m.ForwardWS(ws, d.X[0]) // warm up
	allocs := testing.AllocsPerRun(100, func() {
		m.ForwardWS(ws, d.X[0])
	})
	if allocs > 0 {
		t.Fatalf("ForwardWS allocates %.1f objects/op with a warm workspace, want 0", allocs)
	}
}

func TestBackwardStepAllocationFree(t *testing.T) {
	m, ws, d := allocModel()
	g := NewGrads(m)
	m.BackwardWS(ws, g, d.X[0], d.Y[0]) // warm up
	allocs := testing.AllocsPerRun(100, func() {
		g.Zero()
		m.BackwardWS(ws, g, d.X[0], d.Y[0])
		m.Step(g, 0.1, 1)
	})
	if allocs > 0 {
		t.Fatalf("Backward+Step allocates %.1f objects/op with a warm workspace, want 0", allocs)
	}
}

func TestAccuracyWSAllocationFree(t *testing.T) {
	m, ws, d := allocModel()
	AccuracyWS(m, ws, d) // warm up
	allocs := testing.AllocsPerRun(20, func() {
		AccuracyWS(m, ws, d)
	})
	if allocs > 0 {
		t.Fatalf("AccuracyWS allocates %.1f objects/op with a warm workspace, want 0", allocs)
	}
}

func TestEvaluateWSAllocationFree(t *testing.T) {
	m, ws, d := allocModel()
	EvaluateWS(m, ws, d) // warm up
	allocs := testing.AllocsPerRun(20, func() {
		EvaluateWS(m, ws, d)
	})
	if allocs > 0 {
		t.Fatalf("EvaluateWS allocates %.1f objects/op with a warm workspace, want 0", allocs)
	}
}

func TestSGDWSSteadyStateAllocationFree(t *testing.T) {
	for _, cfg := range []TrainConfig{
		{LearningRate: 0.1, BatchSize: 8, Iterations: 2},
		// Several tiles and a ragged last one, plus the lazily allocated
		// momentum accumulator.
		{LearningRate: 0.1, BatchSize: 3*tile + 1, Iterations: 2, Momentum: 0.9, WeightDecay: 1e-4},
	} {
		m, ws, d := allocModel()
		r := rng.New(3)
		SGDWS(m, ws, d, cfg, r) // warm up (lazily allocates the accumulators)
		allocs := testing.AllocsPerRun(10, func() {
			SGDWS(m, ws, d, cfg, r)
		})
		if allocs > 0 {
			t.Fatalf("SGDWS(batch %d) allocates %.1f objects/op with a warm workspace, want 0", cfg.BatchSize, allocs)
		}
	}
}

// The tile scratch is a small constant per workspace: the pipeline engine
// holds one workspace per device actor and the node engine one per process.
func TestWorkspaceTileScratchIsSmall(t *testing.T) {
	_, ws, _ := allocModel()
	bytes := 8 * cap(ws.back)
	for _, layer := range ws.acts {
		bytes += 24 * cap(layer)
		for _, v := range layer {
			bytes += 8 * cap(v)
		}
	}
	if bytes > 8<<10 {
		t.Fatalf("workspace tile scratch is %d bytes at 64-32-10, want <= 8 KB", bytes)
	}
}

func TestParamsIntoReusesBuffer(t *testing.T) {
	m, _, _ := allocModel()
	buf := m.ParamsInto(nil)
	allocs := testing.AllocsPerRun(50, func() {
		buf = m.ParamsInto(buf)
	})
	if allocs > 0 {
		t.Fatalf("ParamsInto allocates %.1f objects/op with a right-sized buffer, want 0", allocs)
	}
	if got, want := len(buf), m.NumParams(); got != want {
		t.Fatalf("ParamsInto length %d, want %d", got, want)
	}
}

// The WS fast paths must be bit-identical to the allocating reference paths.

func TestWorkspacePathsMatchReference(t *testing.T) {
	m, ws, d := allocModel()
	x := d.X[0]
	ref := m.Forward(x)
	got := m.ForwardWS(ws, x)
	for i := range ref {
		if ref[i] != got[i] {
			t.Fatalf("ForwardWS[%d] = %v, Forward = %v", i, got[i], ref[i])
		}
	}

	g1, g2 := NewGrads(m), NewGrads(m)
	l1 := m.Backward(g1, x, d.Y[0])
	l2 := m.BackwardWS(ws, g2, x, d.Y[0])
	if l1 != l2 {
		t.Fatalf("BackwardWS loss %v, Backward %v", l2, l1)
	}
	for l := range g1.Weights {
		for i := range g1.Weights[l].Data {
			if g1.Weights[l].Data[i] != g2.Weights[l].Data[i] {
				t.Fatalf("layer %d weight grad %d differs", l, i)
			}
		}
		for i := range g1.Biases[l] {
			if g1.Biases[l][i] != g2.Biases[l][i] {
				t.Fatalf("layer %d bias grad %d differs", l, i)
			}
		}
	}
}

func TestSGDWSMatchesSGD(t *testing.T) {
	d := dataset.Generate(rng.New(2), 64, dataset.DefaultGen())
	cfg := TrainConfig{LearningRate: 0.1, BatchSize: 8, Iterations: 3, Momentum: 0.9, WeightDecay: 1e-4}
	m1 := New(rng.New(1), dataset.Dim, 16, dataset.NumClasses)
	m2 := m1.Clone()
	l1 := SGD(m1, d, cfg, rng.New(5))
	l2 := SGDWS(m2, NewWorkspace(m2), d, cfg, rng.New(5))
	if l1 != l2 {
		t.Fatalf("SGDWS mean loss %v, SGD %v", l2, l1)
	}
	p1, p2 := m1.Params(), m2.Params()
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("param %d differs after SGD: %v vs %v", i, p1[i], p2[i])
		}
	}
}

// Parallel evaluation must be bit-identical for every worker count,
// including the serial case.

func TestEvalWorkerCountInvariance(t *testing.T) {
	m := New(rng.New(1), dataset.Dim, 32, dataset.NumClasses)
	// Enough samples to span several chunks so the parallel path is real.
	d := dataset.Generate(rng.New(2), 3*evalChunkSize+17, dataset.DefaultGen())
	refAcc := AccuracyWorkers(m, d, 1)
	refLoss := LossWorkers(m, d, 1)
	refEvalAcc, refEvalLoss := Evaluate(m, d, 1)
	for _, workers := range []int{2, 3, 8} {
		if acc := AccuracyWorkers(m, d, workers); acc != refAcc {
			t.Fatalf("Accuracy with %d workers = %v, serial = %v", workers, acc, refAcc)
		}
		if loss := LossWorkers(m, d, workers); loss != refLoss {
			t.Fatalf("Loss with %d workers = %v, serial = %v", workers, loss, refLoss)
		}
		acc, loss := Evaluate(m, d, workers)
		if acc != refEvalAcc || loss != refEvalLoss {
			t.Fatalf("Evaluate with %d workers = (%v, %v), serial = (%v, %v)",
				workers, acc, loss, refEvalAcc, refEvalLoss)
		}
	}
	// The combined kernel must agree with the separate kernels on accuracy
	// and loss values.
	if refEvalAcc != refAcc {
		t.Fatalf("Evaluate acc %v != Accuracy %v", refEvalAcc, refAcc)
	}
	if refEvalLoss != refLoss {
		t.Fatalf("Evaluate loss %v != Loss %v", refEvalLoss, refLoss)
	}
}

func TestNewShapedMatchesSetParams(t *testing.T) {
	src := New(rng.New(9), dataset.Dim, 16, dataset.NumClasses)
	shell := NewShaped(dataset.Dim, 16, dataset.NumClasses)
	shell.SetParams(src.Params())
	x := tensor.NewVector(dataset.Dim)
	for i := range x {
		x[i] = float64(i%7) * 0.1
	}
	a, b := src.Forward(x), shell.Forward(x)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("NewShaped+SetParams logit %d = %v, want %v", i, b[i], a[i])
		}
	}
}

// TestSGDWSOnDirtyScratchMatchesFresh is the contract a shared training pool
// rests on: SGDWS reads nothing its model shell or workspace held before the
// call. A model and workspace that ran another training (other data, another
// config, so the momentum buffer exists), then had their parameters, tile
// activations, back scratch, sample losses, gradients and momentum
// NaN-filled, must train bit-identically to a fresh pair once SetParams loads
// the start point: plain SGD, momentum, weight decay, and both on a batch
// that ends mid-tile.
func TestSGDWSOnDirtyScratchMatchesFresh(t *testing.T) {
	sizes := []int{dataset.Dim, 16, dataset.NumClasses}
	d := dataset.Generate(rng.New(2), 64, dataset.DefaultGen())
	other := dataset.Generate(rng.New(3), 40, dataset.DefaultGen())
	start := New(rng.New(1), sizes...).Params()
	nan := math.NaN()
	fill := func(v tensor.Vector) {
		for i := range v {
			v[i] = nan
		}
	}
	fillGrads := func(g *Grads) {
		for l := range g.Weights {
			fill(tensor.Vector(g.Weights[l].Data))
			fill(g.Biases[l])
		}
	}
	for _, cfg := range []TrainConfig{
		{LearningRate: 0.1, BatchSize: 8, Iterations: 3},
		{LearningRate: 0.1, BatchSize: 8, Iterations: 3, Momentum: 0.9},
		{LearningRate: 0.1, BatchSize: 8, Iterations: 3, WeightDecay: 1e-3},
		{LearningRate: 0.05, BatchSize: 13, Iterations: 2, Momentum: 0.9, WeightDecay: 1e-3},
	} {
		fresh := NewShaped(sizes...)
		fresh.SetParams(start)
		wantLoss := SGDWS(fresh, NewWorkspace(fresh), d, cfg, rng.New(5))

		dirty := NewShaped(sizes...)
		ws := NewWorkspace(dirty)
		SGDWS(dirty, ws, other, TrainConfig{LearningRate: 0.3, BatchSize: 11, Iterations: 2, Momentum: 0.5, WeightDecay: 0.01}, rng.New(9))
		for l := range dirty.Weights {
			fill(tensor.Vector(dirty.Weights[l].Data))
			fill(dirty.Biases[l])
		}
		for _, acts := range ws.acts {
			for _, a := range acts {
				fill(a)
			}
		}
		fill(ws.back)
		fill(ws.loss[:])
		fillGrads(ws.grads)
		fillGrads(ws.vel)
		dirty.SetParams(start)
		gotLoss := SGDWS(dirty, ws, d, cfg, rng.New(5))

		if math.Float64bits(gotLoss) != math.Float64bits(wantLoss) {
			t.Errorf("%+v: loss %v on dirty scratch, %v on fresh", cfg, gotLoss, wantLoss)
		}
		want, got := fresh.Params(), dirty.Params()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%+v: param %d is %v on dirty scratch, %v on fresh", cfg, i, got[i], want[i])
			}
		}
	}
}

// TestEvalPoolSurvivesCollection: a scratch put back is still there after
// garbage collections, so the next Get hands it out again and builds
// nothing. A sync.Pool drops its contents at a collection and would build a
// new model and workspace here. The "builds nothing" half is counted over
// many collect-then-Get cycles, whose average a stray allocation elsewhere
// in the process does not move off zero, as one model build does.
func TestEvalPoolSurvivesCollection(t *testing.T) {
	p := NewEvalPool(dataset.Dim, 32, dataset.NumClasses)
	s := p.Get()
	p.Put(s)
	runtime.GC()
	runtime.GC()
	if got := p.Get(); got != s {
		t.Errorf("Get after two collections returned a new scratch, want the one put back")
	}
	p.Put(s)
	allocs := testing.AllocsPerRun(50, func() {
		runtime.GC()
		runtime.GC()
		p.Put(p.Get())
	})
	if allocs > 0 {
		t.Errorf("Get after two collections allocates %.0f objects, want 0", allocs)
	}
}

// TestEvalPoolCycleAllocationFree: once a pool holds a scratch, a Get/Put
// cycle allocates nothing.
func TestEvalPoolCycleAllocationFree(t *testing.T) {
	p := NewEvalPool(dataset.Dim, 32, dataset.NumClasses)
	p.Put(p.Get())
	if allocs := testing.AllocsPerRun(100, func() { p.Put(p.Get()) }); allocs > 0 {
		t.Fatalf("EvalPool Get/Put allocates %.1f objects per cycle, want 0", allocs)
	}
}

// TestEvaluationOnPooledModelMatchesFresh: a model an EvalPool built
// evaluates on workspaces borrowed from that pool. Whatever those
// workspaces held before (here another model's evaluation, then NaN in every
// activation), Evaluate, AccuracyWorkers and LossWorkers return the same
// bits as on a fresh model for every worker count, and on a warm pool a
// serial evaluation builds no workspace.
func TestEvaluationOnPooledModelMatchesFresh(t *testing.T) {
	sizes := []int{dataset.Dim, 16, dataset.NumClasses}
	d := dataset.Generate(rng.New(2), 3*evalChunkSize+17, dataset.DefaultGen())
	params := New(rng.New(1), sizes...).Params()
	fresh := NewShaped(sizes...)
	fresh.SetParams(params)
	wantAcc, wantLoss := Evaluate(fresh, d, 1)

	p := NewEvalPool(sizes...)
	var dirty []*EvalScratch
	for range 8 {
		dirty = append(dirty, p.Get())
	}
	for i, s := range dirty {
		s.Model.SetParams(New(rng.New(uint64(10+i)), sizes...).Params())
		EvaluateWS(s.Model, s.WS, d)
		for _, acts := range s.WS.acts {
			for _, a := range acts {
				tensor.Fill(a, math.NaN())
			}
		}
		tensor.Fill(s.WS.back, math.NaN())
		p.Put(s)
	}
	ev := p.Get()
	ev.Model.SetParams(params)
	for _, workers := range []int{1, 2, 3, 8} {
		if acc, loss := Evaluate(ev.Model, d, workers); acc != wantAcc || loss != wantLoss {
			t.Errorf("Evaluate with %d workers = (%v, %v), fresh model = (%v, %v)", workers, acc, loss, wantAcc, wantLoss)
		}
		if acc := AccuracyWorkers(ev.Model, d, workers); acc != wantAcc {
			t.Errorf("AccuracyWorkers with %d workers = %v, fresh model = %v", workers, acc, wantAcc)
		}
		if loss := LossWorkers(ev.Model, d, workers); loss != wantLoss {
			t.Errorf("LossWorkers with %d workers = %v, fresh model = %v", workers, loss, wantLoss)
		}
	}
	pooled := testing.AllocsPerRun(20, func() { Evaluate(ev.Model, d, 1) })
	unpooled := testing.AllocsPerRun(20, func() { Evaluate(fresh, d, 1) })
	ws := testing.AllocsPerRun(20, func() { NewWorkspace(fresh) })
	if pooled > unpooled-ws {
		t.Errorf("serial Evaluate on a pooled model allocates %.0f objects, on a fresh model %.0f; want a workspace's %.0f fewer", pooled, unpooled, ws)
	}
	p.Put(ev)
}
