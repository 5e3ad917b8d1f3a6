package step

import (
	"math"
	"sync"
	"testing"

	"abdhfl/internal/tensor"
)

// emptyStore drops every vector and send buffer the process store holds
// idle; its model pools stay.
func emptyStore() {
	Store.mu.Lock()
	Store.vecs, Store.bufs, Store.idle = map[int][]tensor.Vector{}, nil, 0
	Store.mu.Unlock()
}

// TestStoreIdleBounded fills the store past its idle bound: the vectors and
// send buffers put beyond it are dropped, and a take makes room for one
// more put.
func TestStoreIdleBounded(t *testing.T) {
	emptyStore()
	defer emptyStore()
	const dim = 2410
	fit := storeIdleMax / (8 * dim)
	vs := make([]tensor.Vector, fit+3)
	for i := range vs {
		vs[i] = Store.Take(dim)
	}
	Store.Put(vs...)
	Store.PutBuf(make([]byte, 0, 8*dim))
	if n := len(Store.vecs[dim]); n != fit || Store.idle != 8*dim*fit || len(Store.bufs) != 0 {
		t.Fatalf("after putting %d vectors and a buffer: %d vectors, %d buffers, %d idle bytes; want %d, 0 and %d", fit+3, n, len(Store.bufs), Store.idle, fit, 8*dim*fit)
	}
	Store.Put(vs[fit])
	if n := len(Store.vecs[dim]); n != fit {
		t.Errorf("a put past the bound was kept: %d vectors", n)
	}
	Store.Take(dim)
	Store.PutBuf(make([]byte, 0, 8*dim))
	if len(Store.bufs) != 1 || Store.idle != 8*dim*fit {
		t.Errorf("after a take and a buffer put: %d buffers, %d idle bytes; want 1 and %d", len(Store.bufs), Store.idle, 8*dim*fit)
	}
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
	for dim, vs := range Store.vecs {
		for _, v := range vs {
			if len(v) != dim || (dim != dims[0] && dim != dims[1]) {
				t.Errorf("idle vector of dim %d on the dim-%d list; the borrowers' dims are %v", len(v), dim, dims)
			}
			held += 8 * len(v)
		}
	}
	for _, b := range Store.bufs {
		held += cap(b)
	}
	if Store.idle != held || Store.idle > storeIdleMax {
		t.Errorf("store idle count %d, lists hold %d bytes, bound %d", Store.idle, held, storeIdleMax)
	}
}

// TestStoreQuarantine: under quarantine what is given back is poisoned and
// never lent again, end reports a value written after it went back or
// given back twice, and afterwards the store lends and keeps values as
// before.
func TestStoreQuarantine(t *testing.T) {
	emptyStore()
	defer emptyStore()
	end := Store.Quarantine()
	v, b := Store.Take(4), append(Store.Buf(), 1, 2)
	Store.Put(v)
	Store.PutBuf(b)
	if !math.IsNaN(v[3]) || b[1] != 0xff || len(Store.vecs[4]) != 0 || len(Store.bufs) != 0 {
		t.Fatalf("quarantined values: vector %v, buffer %v; idle %d vectors, %d buffers", v, b, len(Store.vecs[4]), len(Store.bufs))
	}
	if w := Store.Take(4); &w[0] == &v[0] {
		t.Fatal("a retired vector was lent again")
	}
	if !end() {
		t.Fatal("end reports untouched poison as written")
	}
	end = Store.Quarantine()
	Store.Put(v)
	v[2] = 1
	if end() {
		t.Error("end missed a vector written after it went back")
	}
	end = Store.Quarantine()
	Store.Put(v)
	Store.Put(v)
	if end() {
		t.Error("end missed a vector given back twice")
	}
	Store.Put(v)
	if w := Store.Take(4); &w[0] != &v[0] {
		t.Error("after quarantine, a vector given back was not lent again")
	}
}
