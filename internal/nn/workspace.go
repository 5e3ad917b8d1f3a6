package nn

import (
	"fmt"
	"sync"

	"abdhfl/internal/tensor"
)

// tile is the number of samples the training and evaluation loops push
// through the batched tensor kernels together. No result depends on it (see
// the summation-order contract in internal/tensor/matrix.go), so it is a
// constant rather than a knob: large enough that a weight-gradient row folds
// four ReLU-surviving samples per pass most of the time, small enough that
// the per-workspace scratch stays a few KB.
const tile = 8

// Workspace holds the scratch buffers one evaluation/training thread needs to
// run forward and backward passes without per-call allocation: one tile of
// layer activations and (lazily) gradient and momentum accumulators. A warm
// Workspace makes ForwardWS, BackwardWS, SGDWS and the *WS evaluation helpers
// allocation-free, which is what keeps the simulator's inner loops off the
// garbage collector.
//
// A Workspace is NOT safe for concurrent use; give each goroutine its own
// (see EvalPool) and reuse it across calls.
type Workspace struct {
	sizes []int
	// acts[l][b] is layer l's activation of tile sample b, 1 <= l <= L; a
	// backward pass overwrites it with the backprop error at that layer once
	// the activation has been used. Layer 0's activations are the caller's
	// inputs, which are passed down and never stored, so the workspace does
	// not pin caller data.
	acts [][]tensor.Vector
	// back is one hidden layer's worth of scratch for the error on its way
	// through the ReLU mask.
	back tensor.Vector
	// loss[b] is the loss of tile sample b after a backward pass.
	loss  [tile]float64
	grads *Grads
	vel   *Grads
}

// NewWorkspace returns a workspace shaped for m. It can be reused for any
// model with identical layer sizes.
func NewWorkspace(m *Model) *Workspace {
	L := m.Layers()
	width, hidden := 0, 0
	for _, s := range m.Sizes[1:] {
		width += s
	}
	for _, s := range m.Sizes[1:L] {
		hidden = max(hidden, s)
	}
	// One buffer backs every vector.
	buf := make([]float64, tile*width+hidden)
	vecs := make([]tensor.Vector, tile*L)
	w := &Workspace{
		sizes: append([]int(nil), m.Sizes...),
		acts:  make([][]tensor.Vector, L+1),
		back:  buf[:hidden:hidden],
	}
	buf = buf[hidden:]
	for l := 1; l <= L; l++ {
		n := m.Sizes[l]
		w.acts[l], vecs = vecs[:tile:tile], vecs[tile:]
		for b := range w.acts[l] {
			w.acts[l][b], buf = buf[:n:n], buf[n:]
		}
	}
	return w
}

// checkModel panics when m's shape does not match the workspace.
func (w *Workspace) checkModel(m *Model) {
	if len(m.Sizes) != len(w.sizes) {
		panic(fmt.Sprintf("nn: workspace shaped %v used with model %v", w.sizes, m.Sizes))
	}
	for i, s := range m.Sizes {
		if w.sizes[i] != s {
			panic(fmt.Sprintf("nn: workspace shaped %v used with model %v", w.sizes, m.Sizes))
		}
	}
}

// gradsFor returns the workspace's gradient accumulator, allocating it on
// first use. The contents are whatever the previous user left; callers zero
// it (SGD does so every iteration).
func (w *Workspace) gradsFor(m *Model) *Grads {
	if w.grads == nil {
		w.grads = NewGrads(m)
	}
	return w.grads
}

// velFor returns the workspace's momentum accumulator zeroed for a fresh
// optimisation run, allocating it on first use.
func (w *Workspace) velFor(m *Model) *Grads {
	if w.vel == nil {
		w.vel = NewGrads(m)
		return w.vel
	}
	w.vel.Zero()
	return w.vel
}

// forwardTile runs the samples xs (at most tile) through the network and
// returns their logits, leaving layer l's post-activation outputs in
// ws.acts[l][:len(xs)]. The slices are owned by ws and valid until its next
// use.
func (m *Model) forwardTile(ws *Workspace, xs []tensor.Vector) []tensor.Vector {
	ws.checkModel(m)
	in := xs
	for l, w := range m.Weights {
		out := ws.acts[l+1][:len(xs)]
		tensor.MatVecBatch(out, w, in)
		for _, z := range out {
			if l < len(m.Weights)-1 {
				addBiasReLU(z, m.Biases[l])
			} else {
				tensor.Add(z, z, m.Biases[l])
			}
		}
		in = out
	}
	return in
}

// ForwardWS computes the class logits for input x using ws as scratch. The
// returned vector is owned by ws and valid until its next use.
func (m *Model) ForwardWS(ws *Workspace, x tensor.Vector) tensor.Vector {
	return m.forwardTile(ws, []tensor.Vector{x})[0]
}

// PredictWS returns the argmax class for input x using ws as scratch.
func (m *Model) PredictWS(ws *Workspace, x tensor.Vector) int {
	return tensor.ArgMax(m.ForwardWS(ws, x))
}

// backwardTile accumulates into g the softmax cross-entropy gradients of the
// samples (xs[b], labels[b]) (at most tile), in sample order per gradient
// element — bit-identical to one backward pass per sample — and leaves the
// sample losses in ws.loss[:len(xs)].
func (m *Model) backwardTile(ws *Workspace, g *Grads, xs []tensor.Vector, labels []int) {
	// Forward pass, caching post-activation outputs of every layer.
	delta := m.forwardTile(ws, xs)
	// Softmax + cross entropy, in place: delta = p - onehot(label).
	for b, p := range delta {
		Softmax(p, p)
		ws.loss[b] = -ln(max64(p[labels[b]], 1e-12))
		p[labels[b]] -= 1
	}
	// Backward pass.
	for l := m.Layers() - 1; l > 0; l-- {
		in := ws.acts[l][:len(xs)]
		accumulate(g, l, delta, in)
		// The error behind layer l replaces the activations in front of it,
		// zeroed where ReLU clamped them.
		for b, d := range delta {
			back := tensor.MatTVec(ws.back[:len(in[b])], m.Weights[l], d)
			reluBackward(in[b], back)
		}
		delta = in
	}
	accumulate(g, 0, delta, xs)
}

// accumulate adds the samples' layer-l gradients to g: the outer products
// delta[b] in[b]ᵀ for the weights, delta[b] for the biases.
func accumulate(g *Grads, l int, delta, in []tensor.Vector) {
	tensor.AddOuterBatch(g.Weights[l], 1, delta, in)
	for _, d := range delta {
		tensor.Axpy(g.Biases[l], 1, d)
	}
}

// BackwardWS accumulates into g the gradient of the softmax cross-entropy
// loss for sample (x, label) using ws as scratch, and returns the sample
// loss. It is Backward without the per-layer allocations.
func (m *Model) BackwardWS(ws *Workspace, g *Grads, x tensor.Vector, label int) float64 {
	m.backwardTile(ws, g, []tensor.Vector{x}, []int{label})
	return ws.loss[0]
}

func max64(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// EvalScratch bundles a reusable model with a matching workspace —
// everything a validator needs to score a flat parameter vector, or a device
// to train from one, without allocating.
type EvalScratch struct {
	Model *Model
	WS    *Workspace
}

// EvalPool is a concurrency-safe cache of EvalScratch values of one model
// shape. Consensus validators score n×n (member, proposal) pairs per round;
// building a fresh He-initialised model per call — immediately overwritten by
// SetParams — was the simulator's single largest allocation source. A pool
// amortises the model and workspace across calls and across goroutines.
//
// It serves training too: SGDWS reads nothing a borrowed model or workspace
// held before (SetParams overwrites the parameters, every iteration zeroes
// the gradients, momentum starts from zero and the forward pass overwrites
// the activations), so the node engines of one process borrow from one pool
// for each device's SetParams → SGDWS → ParamsInto span instead of holding a
// model each.
//
// It is a mutex-guarded LIFO, not a sync.Pool, which a garbage collection
// empties so that the next borrowers build new models: it keeps a scratch
// until it is borrowed again, and holds no more than were borrowed at once.
type EvalPool struct {
	shape []int
	mu    sync.Mutex
	free  []*EvalScratch
}

// NewEvalPool returns a pool producing models with the given layer sizes.
func NewEvalPool(sizes ...int) *EvalPool {
	return &EvalPool{shape: append([]int(nil), sizes...)}
}

// Get returns a scratch with undefined parameter contents; callers SetParams
// before use and Put it back when done.
func (p *EvalPool) Get() *EvalScratch {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		s := p.free[n-1]
		p.free = p.free[:n-1]
		return s
	}
	m := NewShaped(p.shape...)
	m.pool = p
	return &EvalScratch{Model: m, WS: NewWorkspace(m)}
}

// Put returns s to the pool; the caller uses it no more.
func (p *EvalPool) Put(s *EvalScratch) {
	p.mu.Lock()
	p.free = append(p.free, s)
	p.mu.Unlock()
}
