package freelist_test

import (
	"math"
	"slices"
	"sync"
	"testing"

	"abdhfl/internal/freelist"
	"abdhfl/internal/nn"
)

// TestLIFO: a list lends the value given back last first, and a fresh one
// once it is empty.
func TestLIFO(t *testing.T) {
	l := freelist.Slices[[]float64](freelist.NewBound(1<<10), math.NaN(), 1)
	vs := [][]float64{{1}, {2}, {3}}
	for _, v := range vs {
		l.Put(v)
	}
	if idle := l.Idle(); len(idle) != 3 || &idle[0][0] != &vs[0][0] {
		t.Fatalf("idle after three puts: %v", idle)
	}
	for i := len(vs) - 1; i >= 0; i-- {
		if v := l.Get(); &v[0] != &vs[i][0] {
			t.Fatalf("get %d lent %v, want %v", len(vs)-i, v, vs[i])
		}
	}
	if v := l.Get(); len(v) != 1 || v[0] != 0 || slices.ContainsFunc(vs, func(w []float64) bool { return &w[0] == &v[0] }) {
		t.Fatalf("an empty list lent %v, not a fresh vector", v)
	}
}

// TestIdleBound fills two lists sharing a bound up to it: a put that
// reaches the bound exactly is kept, one byte past it is dropped, a value
// holding no bytes is dropped, and a get makes room for one more put.
func TestIdleBound(t *testing.T) {
	const dim = 100
	b := freelist.NewBound(3 * 8 * dim)
	vecs, bufs := freelist.Slices[[]float64](b, math.NaN(), dim), freelist.Slices[[]byte](b, 0xff, 0)
	for range 3 {
		vecs.Put(make([]float64, dim))
	}
	if n := len(vecs.Idle()); n != 3 || b.Idle() != 3*8*dim {
		t.Fatalf("three vectors up to the bound: %d kept, %d idle bytes", n, b.Idle())
	}
	vecs.Put(make([]float64, dim))
	bufs.Put(make([]byte, 0, 1))
	bufs.Put(nil)
	if n, m := len(vecs.Idle()), len(bufs.Idle()); n != 3 || m != 0 || b.Idle() != 3*8*dim {
		t.Fatalf("puts past the bound: %d vectors and %d buffers kept, %d idle bytes", n, m, b.Idle())
	}
	vecs.Get()
	bufs.Put(make([]byte, 0, 8*dim))
	if n, m := len(vecs.Idle()), len(bufs.Idle()); n != 2 || m != 1 || b.Idle() != 3*8*dim {
		t.Errorf("after a get and a buffer put: %d vectors, %d buffers, %d idle bytes", n, m, b.Idle())
	}
}

// TestClassEdges holds the size classes at their edges: 63 and 64 bytes
// share the smallest class, 256 KiB is the largest, and one byte more gets
// a one-off buffer that is never kept; a buffer below the smallest class is
// not kept either.
func TestClassEdges(t *testing.T) {
	c := freelist.NewClasses(6, 18, 8<<20)
	for _, tc := range []struct{ n, cap int }{{1, 64}, {63, 64}, {64, 64}, {65, 128}, {1 << 18, 1 << 18}, {1<<18 + 1, 1<<18 + 1}} {
		b := c.Get(tc.n)
		if len(b) != tc.n || cap(b) != tc.cap {
			t.Errorf("Get(%d): len %d cap %d, want cap %d", tc.n, len(b), cap(b), tc.cap)
		}
		c.Put(b)
		kept := tc.n <= 1<<18
		if idle, bytes := c.Idle(); (len(idle) == 1) != kept || (bytes == tc.cap) != kept {
			t.Errorf("after putting back Get(%d): %d idle buffers, %d idle bytes; kept %v", tc.n, len(idle), bytes, kept)
		}
		if again := c.Get(tc.n); kept && &again[0] != &b[0] {
			t.Errorf("Get(%d) after its put drew a fresh buffer", tc.n)
		}
	}
	c.Put(make([]byte, 63))
	if idle, bytes := c.Idle(); len(idle) != 0 || bytes != 0 {
		t.Errorf("a 63-byte buffer was kept: %d idle buffers, %d bytes", len(idle), bytes)
	}
}

// TestConcurrentGetPut has four borrowers get and put on one list and one
// set of classes at once. Afterwards the idle counts are what the lists
// hold, within their bounds. Run it with -race.
func TestConcurrentGetPut(t *testing.T) {
	b := freelist.NewBound(64 << 10)
	vecs, c := freelist.Slices[[]float64](b, math.NaN(), 64), freelist.NewClasses(6, 12, 32<<10)
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 200 {
				v := vecs.Get()
				v[0] = float64(i)
				buf := c.Get(100 * (w + 1))
				buf[0] = byte(i)
				vecs.Put(v)
				c.Put(buf)
			}
		}()
	}
	wg.Wait()
	held := 0
	for _, v := range vecs.Idle() {
		held += 8 * len(v)
	}
	if b.Idle() != held || held > 64<<10 {
		t.Errorf("vector bound counts %d idle bytes, the list holds %d", b.Idle(), held)
	}
	bufs, idle := c.Idle()
	held = 0
	for _, buf := range bufs {
		held += cap(buf)
	}
	if idle != held || held > 32<<10 {
		t.Errorf("classes count %d idle bytes, they hold %d", idle, held)
	}
}

// kind is one kind of value under quarantine: get borrows one, poisoned
// reports that it is poisoned throughout, write changes it.
type kind struct {
	name     string
	get      func() any
	put      func(any)
	poisoned func(any) bool
	write    func(any)
	same     func(a, b any) bool
}

func allNaN(v []float64) bool {
	return !slices.ContainsFunc(v, func(x float64) bool { return !math.IsNaN(x) })
}

func all0xff(b []byte) bool {
	return !slices.ContainsFunc(b[:cap(b)], func(x byte) bool { return x != 0xff })
}

func kinds() []kind {
	vecs := freelist.Slices[[]float64](freelist.NewBound(1<<20), math.NaN(), 4)
	bufs := freelist.Slices[[]byte](freelist.NewBound(1<<20), 0xff, 0)
	frames := freelist.NewClasses(6, 18, 1<<20)
	models := nn.NewEvalPool(4, 3, 2)
	sameVec := func(a, b any) bool { return &a.([]float64)[0] == &b.([]float64)[0] }
	sameBuf := func(a, b any) bool { return &a.([]byte)[:1][0] == &b.([]byte)[:1][0] }
	return []kind{
		{"vectors", func() any { return vecs.Get() }, func(v any) { vecs.Put(v.([]float64)) }, func(v any) bool { return allNaN(v.([]float64)) },
			func(v any) { v.([]float64)[2] = 1 }, sameVec},
		{"send buffers", func() any { return append(bufs.Get(), 1, 2) }, func(b any) { bufs.Put(b.([]byte)[:0]) }, func(b any) bool { return all0xff(b.([]byte)) },
			func(b any) { b.([]byte)[1] = 0 }, sameBuf},
		{"frame buffers", func() any { return frames.Get(100) }, func(b any) { frames.Put(b.([]byte)) },
			func(b any) bool { return all0xff(b.([]byte)) }, func(b any) { b.([]byte)[99] = 0 }, sameBuf},
		{"models", func() any { return models.Get() }, func(s any) { models.Put(s.(*nn.EvalScratch)) },
			func(s any) bool {
				m := s.(*nn.EvalScratch).Model
				for l := range m.Weights {
					if !allNaN(m.Weights[l].Data) || !allNaN(m.Biases[l]) {
						return false
					}
				}
				return true
			}, func(s any) { s.(*nn.EvalScratch).Model.Biases[1][0] = 1 }, func(a, b any) bool { return a == b }},
	}
}

// TestQuarantine: for each of the four kinds a list holds, under
// quarantine what is given back is poisoned and never lent again, end
// reports a value written after it went back or given back twice, and
// afterwards the list lends and keeps values as before.
func TestQuarantine(t *testing.T) {
	for _, k := range kinds() {
		t.Run(k.name, func(t *testing.T) {
			end := freelist.Quarantine()
			x := k.get()
			k.put(x)
			if !k.poisoned(x) {
				t.Fatalf("a value given back under quarantine was not poisoned: %v", x)
			}
			if y := k.get(); k.same(x, y) {
				t.Fatal("a retired value was lent again")
			}
			if !end() {
				t.Fatal("end reports untouched poison as written")
			}
			end = freelist.Quarantine()
			k.put(x)
			k.write(x)
			if end() {
				t.Error("end missed a value written after it went back")
			}
			end = freelist.Quarantine()
			k.put(x)
			k.put(x)
			if end() {
				t.Error("end missed a value given back twice")
			}
			k.put(x)
			if y := k.get(); !k.same(x, y) {
				t.Error("after quarantine, a value given back was not lent again")
			}
		})
	}
}
