package codec

import "abdhfl/internal/tensor"

// Scratch holds the reusable working memory of the codecs — the codec
// analogue of aggregate.Scratch. Buffers grow on demand and are kept across
// calls, so steady-state EncodeInto/DecodeInto/Transcode allocate nothing.
//
// A Scratch is owned by a single goroutine: concurrent codec calls must use
// separate Scratch values (every node engine keeps its own). The zero value
// is ready to use.
type Scratch struct {
	// Ref is the Delta codec's reference model: the vector both ends of the
	// link already share (the current flag/global model). Engines set it
	// before each hop; nil means "delta against zero", i.e. the raw vector.
	// Ref must not alias the vector being encoded or decoded, and is never
	// written by the codecs.
	Ref tensor.Vector

	buf  []byte        // Transcode's wire buffer
	abs  []float64     // TopK's |v| work copy (mutated by quickselect)
	diff tensor.Vector // Delta's v-Ref temporary
}

// NewScratch returns a fresh Scratch. Equivalent to &Scratch{}; provided for
// symmetry with aggregate.NewScratch.
func NewScratch() *Scratch { return &Scratch{} }

// resolve returns a usable Scratch: a nil receiver gets a fresh single-call
// scratch, mirroring aggregate.Scratch.resolve.
func (s *Scratch) resolve() *Scratch {
	if s == nil {
		return &Scratch{}
	}
	return s
}

// Buffer returns an n-byte scratch buffer, reused across calls.
func (s *Scratch) Buffer(n int) []byte {
	if cap(s.buf) < n {
		s.buf = make([]byte, n)
	}
	s.buf = s.buf[:n]
	return s.buf
}

// floats returns an n-length float64 scratch slice.
func (s *Scratch) floats(n int) []float64 {
	if cap(s.abs) < n {
		s.abs = make([]float64, n)
	}
	s.abs = s.abs[:n]
	return s.abs
}

// vector returns a dim-length temporary vector.
func (s *Scratch) vector(dim int) tensor.Vector {
	if cap(s.diff) < dim {
		s.diff = tensor.NewVector(dim)
	}
	s.diff = s.diff[:dim]
	return s.diff
}
