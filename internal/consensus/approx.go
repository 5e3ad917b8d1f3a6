package consensus

import (
	"fmt"
	"math"

	"abdhfl/internal/tensor"
)

// ApproxAgreement is a coordinate-wise Byzantine approximate ε-agreement in
// the style of Mendes-Herlihy multidimensional agreement: honest members
// iteratively exchange their current vectors, trim the F most extreme values
// per coordinate at each end, and adopt the mean of the remainder. Byzantine
// members inject adversarial extreme values every round. The iteration
// provably keeps honest values inside the honest convex hull per coordinate
// and contracts their spread geometrically, so after enough rounds all
// honest members agree to within Epsilon.
//
// The coordinate-wise trimmed variant trades the exponential safe-area
// computation of exact multidimensional agreement for polynomial work,
// mirroring the relaxed/validated protocols the paper cites as practical.
type ApproxAgreement struct {
	// F is the number of extreme values trimmed per side each round; it must
	// exceed the number of Byzantine members for the containment guarantee.
	// Zero selects floor((n-1)/3).
	F int
	// Epsilon is the target spread; zero selects 1e-3.
	Epsilon float64
	// MaxRounds bounds the iteration; zero selects 100.
	MaxRounds int
	// ByzMagnitude scales the adversarial values Byzantine members inject;
	// zero selects 1e3.
	ByzMagnitude float64
}

// Name implements Protocol.
func (ApproxAgreement) Name() string { return "approx-agreement" }

// Agree implements Protocol.
func (a ApproxAgreement) Agree(ctx *Context, proposals []tensor.Vector) (tensor.Vector, Stats, error) {
	return agree(a, ctx, proposals)
}

// AgreeInto implements Protocol.
func (a ApproxAgreement) AgreeInto(dst tensor.Vector, ctx *Context, proposals []tensor.Vector) (Stats, error) {
	if err := ctx.checkInto(dst, proposals); err != nil {
		return Stats{}, err
	}
	n := ctx.Members
	f := a.F
	if f == 0 {
		f = (n - 1) / 3
	}
	byzCount := 0
	for i := 0; i < n; i++ {
		if ctx.isByz(i) {
			byzCount++
		}
	}
	honest := n - byzCount
	if honest <= 2*f {
		return Stats{}, fmt.Errorf("consensus: approx agreement needs > 2f honest members (have %d honest, f=%d)", honest, f)
	}
	eps := a.Epsilon
	if eps == 0 {
		eps = 1e-3
	}
	maxRounds := a.MaxRounds
	if maxRounds == 0 {
		maxRounds = 100
	}
	mag := a.ByzMagnitude
	if mag == 0 {
		mag = 1e3
	}
	dim := len(proposals[0])

	// Honest members start from their own proposals.
	values := make([]tensor.Vector, n)
	for i := range values {
		values[i] = proposals[i].Clone()
	}
	var st Stats
	col := make([]float64, 0, n)
	for round := 0; round < maxRounds; round++ {
		st.Rounds++
		st.Messages += n * (n - 1)
		st.ModelTransfers += n * (n - 1)
		// Snapshot of what each member broadcasts this round: honest members
		// send their value, Byzantine members send adversarial extremes.
		sent := make([]tensor.Vector, n)
		for i := 0; i < n; i++ {
			if ctx.isByz(i) {
				v := tensor.NewVector(dim)
				for j := range v {
					v[j] = mag * (2*ctx.Rand.Float64() - 1)
				}
				sent[i] = v
			} else {
				sent[i] = values[i]
			}
		}
		next := make([]tensor.Vector, n)
		for i := 0; i < n; i++ {
			if ctx.isByz(i) {
				next[i] = values[i]
				continue
			}
			v := tensor.NewVector(dim)
			for j := 0; j < dim; j++ {
				col = col[:0]
				for k := 0; k < n; k++ {
					col = append(col, sent[k][j])
				}
				v[j] = tensor.TrimmedMean(col, f)
			}
			next[i] = v
		}
		values = next
		if honestSpread(ctx, values) <= eps {
			break
		}
	}
	if spread := honestSpread(ctx, values); spread > eps {
		return st, fmt.Errorf("consensus: approx agreement did not converge (spread %.3g > ε %.3g)", spread, eps)
	}
	// All honest values coincide within ε; return their mean.
	var honestVals []tensor.Vector
	for i := 0; i < n; i++ {
		if !ctx.isByz(i) {
			honestVals = append(honestVals, values[i])
		}
	}
	tensor.Mean(dst, honestVals)
	return st, nil
}

// honestSpread returns the maximum per-coordinate range among honest values.
func honestSpread(ctx *Context, values []tensor.Vector) float64 {
	var honest []tensor.Vector
	for i := range values {
		if !ctx.isByz(i) {
			honest = append(honest, values[i])
		}
	}
	if len(honest) < 2 {
		return 0
	}
	spread := 0.0
	for j := range honest[0] {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range honest {
			lo = math.Min(lo, v[j])
			hi = math.Max(hi, v[j])
		}
		if hi-lo > spread {
			spread = hi - lo
		}
	}
	return spread
}
