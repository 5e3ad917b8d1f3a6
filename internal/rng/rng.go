// Package rng provides a small, deterministic, splittable pseudo-random
// number generator used by every stochastic component of the simulator.
//
// All randomness in the repository flows through explicit *rng.RNG values
// seeded from a single experiment seed, so that every experiment replays
// bit-for-bit. The generator is a SplitMix64 core (Steele, Lea, Flood 2014),
// which passes BigCrush for the 64-bit output stream and supports cheap
// derivation of independent sub-streams via Split.
package rng

import "math"

// RNG is a deterministic pseudo-random generator. The zero value is a valid
// generator seeded with 0; use New to seed explicitly.
type RNG struct {
	state uint64
	// cached spare Gaussian sample for the Box-Muller transform.
	spare    float64
	hasSpare bool
}

// New returns a generator seeded with seed.
func New(seed uint64) *RNG {
	return &RNG{state: seed}
}

const (
	gamma = 0x9E3779B97F4A7C15 // golden-ratio increment
	mixA  = 0xBF58476D1CE4E5B9
	mixB  = 0x94D049BB133111EB
)

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state += gamma
	z := r.state
	z = (z ^ (z >> 30)) * mixA
	z = (z ^ (z >> 27)) * mixB
	return z ^ (z >> 31)
}

// Split returns a new generator whose stream is statistically independent of
// the receiver's. The receiver advances by one step.
func (r *RNG) Split() *RNG {
	return &RNG{state: r.Uint64()}
}

// Derive returns a deterministic sub-generator identified by label. Unlike
// Split it does not advance the receiver, so derivation order does not
// matter: Derive(a) is the same stream regardless of any Derive(b) calls.
//
// Derive, DeriveDecimal, DeriveDecimals and DeriveN are one-line wrappers so
// that they inline: a derived generator that does not outlive its caller then
// lives on that caller's stack, and a hot loop can derive a stream per device
// per round without allocating (TestDeriveStaysOnStack).
func (r *RNG) Derive(label string) *RNG {
	return &RNG{state: deriveState(r.state, label)}
}

// deriveState is Derive's hash, kept out of line so the wrapper stays within
// the inlining budget.
//
//go:noinline
func deriveState(h uint64, label string) uint64 {
	return finish(foldLabel(h, label))
}

// deriveStateN is DeriveN's hash: the label, then the index folded byte-wise
// so all 64 bits participate.
//
//go:noinline
func deriveStateN(h uint64, label string, n uint64) uint64 {
	h = foldLabel(h, label)
	for i := 0; i < 8; i++ {
		h = (h ^ (n & 0xFF)) * 0x100000001B3
		n >>= 8
	}
	return finish(h)
}

// foldLabel folds label into h byte by byte, FNV-1a style.
func foldLabel(h uint64, label string) uint64 {
	for i := 0; i < len(label); i++ {
		h = (h ^ uint64(label[i])) * 0x100000001B3
	}
	return h
}

// finish runs the folded value through one SplitMix finalizer so similar
// labels land far apart.
func finish(h uint64) uint64 {
	h += gamma
	h = (h ^ (h >> 30)) * mixA
	h = (h ^ (h >> 27)) * mixB
	return h ^ (h >> 31)
}

// Float64 returns a uniform sample in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform sample in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Multiply-shift rejection-free mapping is fine here: the bias for
	// n << 2^64 is far below anything observable in simulation.
	return int(r.Uint64() % uint64(n))
}

// NormFloat64 returns a standard Gaussian sample (mean 0, stddev 1) using the
// Box-Muller transform.
func (r *RNG) NormFloat64() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(s) / s)
	r.spare = v * f
	r.hasSpare = true
	return u * f
}

// ExpFloat64 returns an exponentially distributed sample with rate 1.
func (r *RNG) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// LogNormal returns a sample of the log-normal distribution with the given
// location mu and scale sigma of the underlying normal.
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}

// Perm returns a random permutation of [0, n) using Fisher-Yates.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle permutes the first n elements using the provided swap function.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Choice returns k distinct indices sampled uniformly from [0, n) in random
// order. It panics if k > n.
func (r *RNG) Choice(n, k int) []int {
	if k > n {
		panic("rng: Choice with k > n")
	}
	p := r.Perm(n)
	return p[:k]
}

// DeriveDecimal returns Derive(label + strconv.Itoa(n)) without building the
// string: the label-and-index streams the engines name "round-7" or
// "device-12" keep their bits while a hot loop derives them allocation-free.
// It is not DeriveN, which folds n's bytes and so is a different stream.
func (r *RNG) DeriveDecimal(label string, n int) *RNG {
	return &RNG{state: deriveStateDecimals(r.state, label, []int{n})}
}

// DeriveDecimals returns Derive(label + the decimals of ns joined by "-")
// without building the string: DeriveDecimals("adur-", l, i, round) is
// Derive(fmt.Sprintf("adur-%d-%d-%d", l, i, round)), so a multi-index label
// keeps its stream while a hot loop derives it allocation-free.
func (r *RNG) DeriveDecimals(label string, ns ...int) *RNG {
	return &RNG{state: deriveStateDecimals(r.state, label, ns)}
}

// deriveStateDecimals is DeriveDecimals' hash: the label, then each index's
// decimal digits most significant first, a minus sign ahead of a negative
// one — the bytes strconv.Itoa writes — with a '-' between two indices.
//
//go:noinline
func deriveStateDecimals(h uint64, label string, ns []int) uint64 {
	h = foldLabel(h, label)
	for i, n := range ns {
		u := uint64(n)
		if i > 0 {
			h = (h ^ '-') * 0x100000001B3
		}
		if n < 0 {
			h = (h ^ '-') * 0x100000001B3
			u = -u
		}
		p := uint64(1)
		for u/p >= 10 {
			p *= 10
		}
		for ; p > 0; p /= 10 {
			h = (h ^ ('0' + u/p%10)) * 0x100000001B3
		}
	}
	return finish(h)
}

// DeriveN returns a deterministic sub-generator identified by (label, n) —
// the numeric counterpart of Derive for per-index streams. Like Derive it
// does not advance the receiver, and it allocates no intermediate string, so
// hot loops can derive per-device streams without a fmt.Sprintf per call.
//
// DeriveN(label, n) and Derive(label + strconv(n)) are distinct streams;
// callers must pick one convention per stream family and keep it.
func (r *RNG) DeriveN(label string, n uint64) *RNG {
	return &RNG{state: deriveStateN(r.state, label, n)}
}

// PermInto fills p (treated as having length n = len(p)) with a random
// permutation of [0, n) using Fisher-Yates, allocating nothing.
func (r *RNG) PermInto(p []int) {
	for i := range p {
		p[i] = i
	}
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// ChoiceInto samples k = len(dst) distinct indices uniformly from [0, n)
// into dst using a partial Fisher-Yates over the caller's scratch slice,
// which must have length >= n; scratch contents are overwritten. Neither
// slice is allocated, so per-cluster cohort draws stay allocation-free even
// with hundreds of thousands of clusters.
//
// The first k elements drawn match Choice(n, k) exactly when k == n; for
// k < n the draw is still uniform but the stream consumption differs from
// Choice (k steps instead of n-1), which is why the cohort machinery uses
// ChoiceInto exclusively.
func (r *RNG) ChoiceInto(dst []int, n int, scratch []int) {
	k := len(dst)
	if k > n {
		panic("rng: ChoiceInto with k > n")
	}
	if len(scratch) < n {
		panic("rng: ChoiceInto scratch shorter than n")
	}
	s := scratch[:n]
	for i := range s {
		s[i] = i
	}
	// Partial Fisher-Yates: after i swaps, s[:i] is a uniform i-subset in
	// uniform order.
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		s[i], s[j] = s[j], s[i]
	}
	copy(dst, s[:k])
}
