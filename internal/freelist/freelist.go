// Package freelist is the module's one free list: a LIFO of idle values,
// bounded by the bytes it keeps idle, with a test-only quarantine. The
// process store's vectors, send buffers and models (step.Store,
// nn.EvalPool) and the wire's frame buffers (transport) sit on it.
//
// The ownership rule every borrower keeps: what a list lends is the
// borrower's alone until given back; the borrower overwrites it in full
// before reading it, and gives it back once, after its last read. A value
// handed out of the program (a final model, a node's global) never enters
// a list. A list keeps what it is given until it is borrowed again, so a
// garbage collection does not empty it as it would a sync.Pool.
package freelist

import (
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
)

// Bound caps the bytes the lists sharing it keep idle: a value that would
// pass it is dropped for the collector.
type Bound struct {
	max  int64
	idle atomic.Int64
}

// NewBound returns a bound of idleMax idle bytes.
func NewBound(idleMax int) *Bound { return &Bound{max: int64(idleMax)} }

// Idle returns the bytes the bound's lists keep idle.
func (b *Bound) Idle() int { return int(b.idle.Load()) }

// List is a LIFO of idle values, safe for concurrent use.
type List[T any] struct {
	mu    sync.Mutex
	free  []T
	fresh func() T    // makes a value when none is idle
	bound *Bound      // nil: unbounded
	size  func(T) int // bytes a value holds, when bounded
	id    func(T) any // the value's identity under quarantine
	// poison fills a value given back under quarantine and returns the
	// check that it still holds its poison.
	poison func(T) (intact func() bool)
}

// New returns an unbounded list of comparable values, such as pointers.
func New[T comparable](fresh func() T, poison func(T) (intact func() bool)) *List[T] {
	return &List[T]{fresh: fresh, id: func(v T) any { return v }, poison: poison}
}

// Slices returns a list of slices under b that makes n-element ones: a
// slice holds its capacity's bytes, and poison fills it to its capacity
// (NaN for vectors, 0xff for byte buffers).
func Slices[S ~[]E, E float64 | byte](b *Bound, poison E, n int) *List[S] {
	width := 8
	if _, ok := any(poison).(byte); ok {
		width = 1
	}
	return &List[S]{fresh: func() S { return make(S, n) }, bound: b,
		size: func(v S) int { return cap(v) * width },
		id:   func(v S) any { return &v[:1][0] },
		poison: func(v S) func() bool {
			v = v[:cap(v)]
			for i := range v {
				v[i] = poison
			}
			// x != x holds for a NaN, the one poison unequal to itself.
			return func() bool { return !slices.ContainsFunc(v, func(x E) bool { return x != poison && x == x }) }
		}}
}

// Get borrows the value given back last, or a fresh one when none is idle.
func (l *List[T]) Get() T {
	l.mu.Lock()
	n := len(l.free)
	if n == 0 {
		l.mu.Unlock()
		return l.fresh()
	}
	var zero T
	v := l.free[n-1]
	l.free[n-1], l.free = zero, l.free[:n-1]
	l.mu.Unlock()
	if l.bound != nil {
		l.bound.idle.Add(-int64(l.size(v)))
	}
	return v
}

// Put gives v back. A value that holds no bytes, or would pass the bound,
// is dropped; under quarantine every value is poisoned and retired.
func (l *List[T]) Put(v T) {
	var n int64
	if l.bound != nil {
		if n = int64(l.size(v)); n == 0 {
			return
		}
	}
	if quarantine.on.Load() {
		retire(l.id(v), l.poison(v))
		return
	}
	if l.bound != nil && l.bound.idle.Add(n) > l.bound.max {
		l.bound.idle.Add(-n)
		return
	}
	l.mu.Lock()
	l.free = append(l.free, v)
	l.mu.Unlock()
}

// Idle returns a copy of the idle values, the next to be lent last.
func (l *List[T]) Idle() []T {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Clone(l.free)
}

// Classes is a size-classed byte list, one list per power-of-two class
// under one Bound: class k holds buffers of at least 1<<(shift+k) bytes.
type Classes struct {
	shift int
	bound *Bound
	lists []*List[[]byte]
}

// NewClasses returns classes from 1<<minShift to 1<<maxShift bytes that
// keep at most idleMax bytes idle.
func NewClasses(minShift, maxShift, idleMax int) *Classes {
	c := &Classes{shift: minShift, bound: NewBound(idleMax)}
	for s := minShift; s <= maxShift; s++ {
		c.lists = append(c.lists, Slices[[]byte](c.bound, 0xff, 1<<s))
	}
	return c
}

// Get returns a buffer of length n from n's class, or a one-off buffer when
// n is above the largest class.
func (c *Classes) Get(n int) []byte {
	if k := max(bits.Len(uint(n-1)), c.shift) - c.shift; k < len(c.lists) {
		return c.lists[k].Get()[:n]
	}
	return make([]byte, n)
}

// Put gives b back to the largest class it fills; a buffer outside the
// classes is dropped.
func (c *Classes) Put(b []byte) {
	if k := bits.Len(uint(cap(b))) - 1 - c.shift; k >= 0 && cap(b) <= 1<<(c.shift+len(c.lists)-1) {
		c.lists[k].Put(b[:0])
	}
}

// Idle returns every class's idle buffers and the bytes they hold.
func (c *Classes) Idle() (bufs [][]byte, idle int) {
	for _, l := range c.lists {
		bufs = append(bufs, l.Idle()...)
	}
	return bufs, c.bound.Idle()
}

// quarantine is the process's test-only switch (Quarantine): retired maps
// each value given back under it to its poison check.
var quarantine struct {
	on      atomic.Bool
	mu      sync.Mutex
	twice   bool // a value was given back twice
	retired map[any]func() bool
}

// retire records a value poisoned under quarantine.
func retire(id any, intact func() bool) {
	quarantine.mu.Lock()
	defer quarantine.mu.Unlock()
	if quarantine.retired != nil { // nil: the quarantine ended meanwhile
		_, again := quarantine.retired[id]
		quarantine.twice, quarantine.retired[id] = quarantine.twice || again, intact
	}
}

// Quarantine is for tests: until the returned end is called, every value
// given back to any list of the process is poisoned at once — a vector
// NaN-filled, a byte buffer 0xff-filled, a model's parameters NaN-filled —
// and never lent again, so a read after the give-back carries the poison
// into the reader's result. end switches quarantine off, drops what it
// retired and reports whether all of it still held its poison and none
// was given back twice: false means something wrote or gave back a value
// it had already given back. One test at a time may use it.
func Quarantine() (end func() (intact bool)) {
	quarantine.mu.Lock()
	quarantine.twice, quarantine.retired = false, map[any]func() bool{}
	quarantine.mu.Unlock()
	quarantine.on.Store(true)
	return func() bool {
		quarantine.on.Store(false)
		quarantine.mu.Lock()
		defer quarantine.mu.Unlock()
		intact := !quarantine.twice
		for _, ok := range quarantine.retired {
			intact = intact && ok()
		}
		quarantine.retired = nil
		return intact
	}
}
