package step

import (
	"math"
	"slices"
	"sync"

	"abdhfl/internal/nn"
	"abdhfl/internal/tensor"
)

// storeIdleMax bounds the bytes the store keeps idle, the frame list's rule.
const storeIdleMax = 8 << 20

// Store is what every learning engine of the process borrows, kept across
// runs: a free list of model vectors per dim, one nn.EvalPool per model
// shape and a free list of send buffers. A run after a process's first so
// finds its working memory ready; a process that runs once allocates it as
// before.
//
// The ownership rule every borrower keeps: what the store lends is the
// borrower's alone until given back; the borrower overwrites a vector in
// full before reading it, and gives it back only after its last read. A
// vector handed out in a Result (a final model, a node's global) never
// enters the store.
var Store = &ProcStore{vecs: map[int][]tensor.Vector{}}

// ProcStore is the type of Store.
type ProcStore struct {
	mu     sync.Mutex
	idle   int // bytes held in vecs and bufs
	vecs   map[int][]tensor.Vector
	bufs   [][]byte
	shapes [][]int // shapes[i] is pools[i]'s layer sizes
	pools  []*nn.EvalPool
	// quarantine, set only by tests (Quarantine), poisons what is given
	// back and retires it, keyed by its first element, where the store
	// never lends it again; twice records a value given back twice.
	quarantine  bool
	twice       bool
	retiredVecs map[*float64]tensor.Vector
	retiredBufs map[*byte][]byte
}

// Pool returns the process's model pool of shape sizes.
func (s *ProcStore) Pool(sizes []int) *nn.EvalPool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i := slices.IndexFunc(s.shapes, func(sh []int) bool { return slices.Equal(sh, sizes) }); i >= 0 {
		return s.pools[i]
	}
	s.shapes, s.pools = append(s.shapes, slices.Clone(sizes)), append(s.pools, nn.NewEvalPool(sizes...))
	return s.pools[len(s.pools)-1]
}

// Take borrows a dim-sized vector, contents unspecified.
func (s *ProcStore) Take(dim int) tensor.Vector {
	s.mu.Lock()
	defer s.mu.Unlock()
	free := s.vecs[dim]
	if len(free) == 0 {
		return tensor.NewVector(dim)
	}
	s.vecs[dim], s.idle = free[:len(free)-1], s.idle-8*dim
	return free[len(free)-1]
}

// Put returns borrowed vectors that their borrower reads no more.
func (s *ProcStore) Put(vs ...tensor.Vector) {
	s.mu.Lock()
	for _, v := range vs {
		if s.quarantine {
			_, again := s.retiredVecs[&v[0]]
			s.twice = s.twice || again
			s.retiredVecs[&v[0]] = tensor.Fill(v, math.NaN())
		} else if s.idle+8*len(v) <= storeIdleMax {
			s.vecs[len(v)] = append(s.vecs[len(v)], v)
			s.idle += 8 * len(v)
		}
	}
	s.mu.Unlock()
}

// Buf borrows an empty send buffer (nil when none is idle).
func (s *ProcStore) Buf() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.bufs) == 0 {
		return nil
	}
	b := s.bufs[len(s.bufs)-1]
	s.bufs, s.idle = s.bufs[:len(s.bufs)-1], s.idle-cap(b)
	return b
}

// PutBuf gives back a buffer Buf lent, however it grew.
func (s *ProcStore) PutBuf(b []byte) {
	s.mu.Lock()
	if s.quarantine && cap(b) > 0 {
		b = b[:cap(b)]
		for i := range b {
			b[i] = 0xff
		}
		_, again := s.retiredBufs[&b[0]]
		s.twice = s.twice || again
		s.retiredBufs[&b[0]] = b
	} else if s.idle+cap(b) <= storeIdleMax {
		s.bufs, s.idle = append(s.bufs, b[:0]), s.idle+cap(b)
	}
	s.mu.Unlock()
}

// Quarantine is for tests: until the returned end is called, every vector
// given back is NaN-filled, every send buffer 0xff-filled, and neither is
// lent again, so a read after the give-back carries the poison into the
// reader's result. end switches quarantine off, drops what it retired and
// reports whether all of it still held its poison and none was given back
// twice: false means something wrote or gave back a value it had already
// given back. One test at a time may use it.
func (s *ProcStore) Quarantine() (end func() (intact bool)) {
	s.mu.Lock()
	s.quarantine, s.twice = true, false
	s.retiredVecs, s.retiredBufs = map[*float64]tensor.Vector{}, map[*byte][]byte{}
	s.mu.Unlock()
	return func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		intact := !s.twice
		for _, v := range s.retiredVecs {
			intact = intact && !slices.ContainsFunc(v, func(x float64) bool { return !math.IsNaN(x) })
		}
		for _, b := range s.retiredBufs {
			intact = intact && !slices.ContainsFunc(b, func(x byte) bool { return x != 0xff })
		}
		s.quarantine, s.retiredVecs, s.retiredBufs = false, nil, nil
		return intact
	}
}
