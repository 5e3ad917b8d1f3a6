// Package nn is a from-scratch neural-network substrate: a multilayer
// perceptron with ReLU hidden activations and a softmax cross-entropy head,
// trained by minibatch SGD. It replaces the paper's PyTorch-style DNN — the
// evaluation only needs a small feed-forward classifier whose parameters can
// be flattened to a vector for federated aggregation.
package nn

import (
	"fmt"
	"math"

	"abdhfl/internal/rng"
	"abdhfl/internal/tensor"
)

// Model is a feed-forward network with len(Sizes)-1 dense layers. Hidden
// layers use ReLU; the final layer feeds a softmax cross-entropy loss.
type Model struct {
	Sizes   []int // layer widths, input first
	Weights []*tensor.Matrix
	Biases  []tensor.Vector
	// pool is the EvalPool that built the model, nil for any other:
	// Evaluate, AccuracyWorkers and LossWorkers borrow their workspaces there.
	pool *EvalPool
}

// New constructs a model with the given layer sizes and He-initialised
// weights drawn from r. It panics on fewer than two layers.
func New(r *rng.RNG, sizes ...int) *Model {
	m := NewShaped(sizes...)
	for l := range m.Weights {
		w := m.Weights[l]
		std := math.Sqrt(2 / float64(w.Cols))
		for i := range w.Data {
			w.Data[i] = std * r.NormFloat64()
		}
	}
	return m
}

// InitParamsInto writes the parameters New(r, sizes...) would start from
// into dst in Params layout — He-initialised weights, zero biases, the same
// draws in the same order — growing dst only when it is too small, and
// returns it. Engines that only need the initial vector use it instead of
// building a model to flatten.
func InitParamsInto(dst tensor.Vector, r *rng.RNG, sizes ...int) tensor.Vector {
	if len(sizes) < 2 {
		panic("nn: model needs at least input and output layers")
	}
	n := 0
	for l := 0; l < len(sizes)-1; l++ {
		n += (sizes[l] + 1) * sizes[l+1]
	}
	if cap(dst) < n {
		dst = make(tensor.Vector, n)
	}
	dst = dst[:n]
	pos := 0
	for l := 0; l < len(sizes)-1; l++ {
		in, out := sizes[l], sizes[l+1]
		std := math.Sqrt(2 / float64(in))
		w := dst[pos : pos+in*out]
		for i := range w {
			w[i] = std * r.NormFloat64()
		}
		pos += len(w)
		clear(dst[pos : pos+out])
		pos += out
	}
	return dst
}

// NewShaped constructs a zero-initialised model of the given layer sizes —
// the right constructor for evaluation shells whose parameters are about to
// be overwritten by SetParams, where He initialisation would only burn RNG
// draws. It panics on fewer than two layers.
func NewShaped(sizes ...int) *Model {
	if len(sizes) < 2 {
		panic("nn: model needs at least input and output layers")
	}
	m := &Model{Sizes: append([]int(nil), sizes...)}
	for l := 0; l < len(sizes)-1; l++ {
		in, out := sizes[l], sizes[l+1]
		m.Weights = append(m.Weights, tensor.NewMatrix(out, in))
		m.Biases = append(m.Biases, tensor.NewVector(out))
	}
	return m
}

// Layers returns the number of dense layers.
func (m *Model) Layers() int { return len(m.Weights) }

// NumParams returns the total number of trainable parameters.
func (m *Model) NumParams() int {
	n := 0
	for l := range m.Weights {
		n += len(m.Weights[l].Data) + len(m.Biases[l])
	}
	return n
}

// Clone returns a deep copy of m.
func (m *Model) Clone() *Model {
	c := &Model{Sizes: append([]int(nil), m.Sizes...)}
	for l := range m.Weights {
		c.Weights = append(c.Weights, m.Weights[l].Clone())
		c.Biases = append(c.Biases, m.Biases[l].Clone())
	}
	return c
}

// Params flattens all weights and biases into a single vector, layer by
// layer (weights row-major, then biases). The layout is the wire format used
// by every aggregation rule.
func (m *Model) Params() tensor.Vector {
	return m.ParamsInto(nil)
}

// ParamsInto flattens all parameters into dst, growing it only when dst is
// too small, and returns the (possibly reallocated) buffer. Passing the
// previous round's buffer back in makes repeated parameter extraction
// allocation-free.
func (m *Model) ParamsInto(dst tensor.Vector) tensor.Vector {
	n := m.NumParams()
	if cap(dst) < n {
		dst = make(tensor.Vector, n)
	}
	dst = dst[:n]
	pos := 0
	for l := range m.Weights {
		pos += copy(dst[pos:], m.Weights[l].Data)
		pos += copy(dst[pos:], m.Biases[l])
	}
	return dst
}

// SetParams loads a flat parameter vector produced by Params. It panics on a
// length mismatch.
func (m *Model) SetParams(p tensor.Vector) {
	if len(p) != m.NumParams() {
		panic(fmt.Sprintf("nn: SetParams length %d, want %d", len(p), m.NumParams()))
	}
	pos := 0
	for l := range m.Weights {
		n := copy(m.Weights[l].Data, p[pos:pos+len(m.Weights[l].Data)])
		pos += n
		n = copy(m.Biases[l], p[pos:pos+len(m.Biases[l])])
		pos += n
	}
}

// Forward computes the class logits for input x. It allocates a transient
// workspace per call; hot paths should hold a Workspace and use ForwardWS.
func (m *Model) Forward(x tensor.Vector) tensor.Vector {
	return m.ForwardWS(NewWorkspace(m), x)
}

// Predict returns the argmax class for input x.
func (m *Model) Predict(x tensor.Vector) int { return tensor.ArgMax(m.Forward(x)) }

// addBiasReLU stores max(z+b, 0) in z (NaN and -0 pass through: only x < 0
// is clamped). Selecting between the two bit patterns, rather than branching
// to a store, compiles to a conditional move; the branch would mispredict on
// every other hidden unit.
func addBiasReLU(z, b tensor.Vector) {
	b = b[:len(z)]
	for i, x := range z {
		x += b[i]
		u := math.Float64bits(x)
		if x < 0 {
			u = 0
		}
		z[i] = math.Float64frombits(u)
	}
}

// reluBackward turns a layer's activations into the backprop error at that
// layer, in place: back[i] where the unit was active, 0 where ReLU clamped it
// (act <= 0) — with the same select-not-branch shape as addBiasReLU.
func reluBackward(act, back tensor.Vector) {
	back = back[:len(act)]
	for i, a := range act {
		u := math.Float64bits(back[i])
		if a <= 0 {
			u = 0
		}
		act[i] = math.Float64frombits(u)
	}
}

// Softmax writes the softmax of logits into dst (dst may alias logits) using
// the max-subtraction trick for numerical stability.
func Softmax(dst, logits tensor.Vector) tensor.Vector {
	maxL := logits[0]
	for _, x := range logits[1:] {
		if x > maxL {
			maxL = x
		}
	}
	sum := 0.0
	for i, x := range logits {
		e := math.Exp(x - maxL)
		dst[i] = e
		sum += e
	}
	tensor.Scale(dst, 1/sum, dst)
	return dst
}

// Grads holds per-layer parameter gradients with the same shapes as a model.
type Grads struct {
	Weights []*tensor.Matrix
	Biases  []tensor.Vector
}

// NewGrads returns zeroed gradients shaped like m.
func NewGrads(m *Model) *Grads {
	g := &Grads{}
	for l := range m.Weights {
		g.Weights = append(g.Weights, tensor.NewMatrix(m.Weights[l].Rows, m.Weights[l].Cols))
		g.Biases = append(g.Biases, tensor.NewVector(len(m.Biases[l])))
	}
	return g
}

// Zero resets all gradient entries.
func (g *Grads) Zero() {
	for l := range g.Weights {
		g.Weights[l].Zero()
		tensor.Fill(g.Biases[l], 0)
	}
}

// Backward accumulates into g the gradient of the softmax cross-entropy loss
// for sample (x, label) and returns the sample loss. The caller is
// responsible for averaging (gradients accumulate raw sums). It allocates a
// transient workspace per call; hot paths should hold a Workspace and use
// BackwardWS.
func (m *Model) Backward(g *Grads, x tensor.Vector, label int) float64 {
	return m.BackwardWS(NewWorkspace(m), g, x, label)
}

// Step applies one SGD update: params -= lr/batch * grads.
func (m *Model) Step(g *Grads, lr float64, batch int) {
	if batch <= 0 {
		panic("nn: Step with non-positive batch size")
	}
	s := -lr / float64(batch)
	for l := range m.Weights {
		tensor.Axpy(tensor.Vector(m.Weights[l].Data), s, tensor.Vector(g.Weights[l].Data))
		tensor.Axpy(m.Biases[l], s, g.Biases[l])
	}
}
