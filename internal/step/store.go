package step

import (
	"math"
	"slices"
	"sync"

	"abdhfl/internal/freelist"
	"abdhfl/internal/nn"
	"abdhfl/internal/tensor"
)

// storeIdleMax bounds the bytes the store keeps idle, the frame list's rule.
const storeIdleMax = 8 << 20

// Store is what every learning engine of the process borrows, kept across
// runs, on freelist (whose ownership rule every borrower keeps): a list of
// model vectors per dim and one of send buffers, under one idle bound, and
// one nn.EvalPool per model shape. A run after a process's first so finds
// its working memory ready.
var Store = newStore()

// ProcStore is the type of Store.
type ProcStore struct {
	mu     sync.Mutex
	bound  *freelist.Bound
	vecs   map[int]*freelist.List[tensor.Vector]
	bufs   *freelist.List[[]byte]
	shapes [][]int // shapes[i] is pools[i]'s layer sizes
	pools  []*nn.EvalPool
}

func newStore() *ProcStore {
	b := freelist.NewBound(storeIdleMax)
	return &ProcStore{bound: b, vecs: map[int]*freelist.List[tensor.Vector]{}, bufs: freelist.Slices[[]byte](b, 0xff, 0)}
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
func (s *ProcStore) Take(dim int) tensor.Vector { return s.dimList(dim).Get() }

// Put gives back vectors; a nil one is dropped.
func (s *ProcStore) Put(vs ...tensor.Vector) {
	for _, v := range vs {
		s.dimList(len(v)).Put(v)
	}
}

func (s *ProcStore) dimList(dim int) *freelist.List[tensor.Vector] {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.vecs[dim] == nil {
		s.vecs[dim] = freelist.Slices[tensor.Vector](s.bound, math.NaN(), dim)
	}
	return s.vecs[dim]
}

// Buf borrows an empty send buffer.
func (s *ProcStore) Buf() []byte { return s.bufs.Get() }

// PutBuf gives back a buffer Buf lent, however it grew.
func (s *ProcStore) PutBuf(b []byte) { s.bufs.Put(b[:0]) }
