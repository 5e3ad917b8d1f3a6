package step

import (
	"sync"
	"testing"

	"abdhfl/internal/tensor"
)

// emptyStore drops every vector and send buffer the process store holds
// idle; its model pools stay.
func emptyStore() {
	fresh := newStore()
	Store.mu.Lock()
	Store.bound, Store.vecs, Store.bufs = fresh.bound, fresh.vecs, fresh.bufs
	Store.mu.Unlock()
}

// TestStoreTwoDimsConcurrently has borrowers of two dims take, grow and give
// back vectors and send buffers at once, as two runs of different model
// shapes in one process do. Afterwards every idle vector is on its own
// dim's list, the idle count is what the lists hold, and it is within the
// bound. Run it with -race too.
func TestStoreTwoDimsConcurrently(t *testing.T) {
	emptyStore()
	defer emptyStore()
	dims := []int{2410, 1210}
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dim := dims[w%2]
			for range 50 {
				vs := []tensor.Vector{Store.Take(dim), Store.Take(dim), Store.Take(dim)}
				Store.Put(vs...)
				Store.PutBuf(append(Store.Buf(), make([]byte, dim)...))
			}
		}()
	}
	wg.Wait()
	held := 0
	for dim, l := range Store.vecs {
		for _, v := range l.Idle() {
			if len(v) != dim || (dim != dims[0] && dim != dims[1]) {
				t.Errorf("idle vector of dim %d on the dim-%d list; the borrowers' dims are %v", len(v), dim, dims)
			}
			held += 8 * len(v)
		}
	}
	for _, b := range Store.bufs.Idle() {
		held += cap(b)
	}
	if idle := Store.bound.Idle(); idle != held || idle > storeIdleMax {
		t.Errorf("store idle count %d, lists hold %d bytes, bound %d", idle, held, storeIdleMax)
	}
}
