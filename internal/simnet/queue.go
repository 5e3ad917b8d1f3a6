package simnet

// This file is the simulator's event queue: one min-heap over every pending
// event, ordered by (at, seq). seq is the global schedule counter, so the
// order is total and dispatch is a pure function of what was scheduled.
//
// At 100k devices tens of thousands of events are pending at once, so the
// time key sits in the heap slot itself: a comparison reads two slots of one
// array and follows an event pointer only when two times are equal. (A 4-ary
// and an 8-ary layout were measured against this binary one at that depth
// with BenchmarkQueueDeep and a 100k-device RunScale; 4 read the same within
// run-to-run spread, 8 read 10 % slower, so the plain layout stayed.)
//
// Dispatched events return to a free list and are reused, so the steady state
// allocates no event structs.
//
// Nothing here grows by append. A caller that knows how many events it will
// ever have pending says so once (reserve) and gets the heap, the free list
// and the events themselves, one slab, at that size; otherwise a full array
// doubles. Go's append grows a large slice by a quarter, which for a queue
// that climbs to its peak once means copying it a dozen times: the arrays
// thrown away on the way were a fifth of what a 100k-device run allocated.
type eventQueue struct {
	heap []slot
	peak int // high-water mark of len(heap) (Stats.PeakQueue)
	free []*event
	slab []event // reserved events not yet handed out
}

// growMin is the least capacity a full array doubles to.
const growMin = 16

// reserve sizes the queue for n simultaneously pending events. It is a hint:
// a run that exceeds it grows as if it had not been given.
func (q *eventQueue) reserve(n int) {
	if n > cap(q.heap) {
		q.heap = append(make([]slot, 0, n), q.heap...)
	}
	if n > cap(q.free) {
		q.free = append(make([]*event, 0, n), q.free...)
	}
	if made := len(q.heap) + len(q.free); n > made+len(q.slab) {
		q.slab = make([]event, n-made)
	}
}

// room returns s with space for one more element, doubling a full array.
func room[T any](s []T) []T {
	if len(s) < cap(s) {
		return s
	}
	return append(make([]T, 0, max(2*cap(s), growMin)), s...)
}

// slot is one heap entry: the event and a copy of its delivery time.
type slot struct {
	at Time
	e  *event
}

func (a slot) less(b slot) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.e.seq < b.e.seq
}

// push queues e for delivery at e.msg.At; e.seq is already set.
func (q *eventQueue) push(e *event) {
	s := slot{at: e.msg.At, e: e}
	h := append(room(q.heap), s)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = s
	q.heap = h
	if len(h) > q.peak {
		q.peak = len(h)
	}
}

// pop removes and returns the event least by (at, seq), or nil when the queue
// is empty.
func (q *eventQueue) pop() *event {
	h := q.heap
	n := len(h) - 1
	if n < 0 {
		return nil
	}
	top := h[0].e
	s := h[n]
	h[n] = slot{}
	h = h[:n]
	q.heap = h
	// Sift the former last slot down from the root.
	i := 0
	for {
		c := 2*i + 1 // the lesser child
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].less(h[c]) {
			c++
		}
		if !h[c].less(s) {
			break
		}
		h[i] = h[c]
		i = c
	}
	if n > 0 {
		h[i] = s
	}
	return top
}

// drain recycles every pending event and clears the high-water mark.
func (q *eventQueue) drain() {
	for i, sl := range q.heap {
		q.put(sl.e)
		q.heap[i] = slot{}
	}
	q.heap, q.peak = q.heap[:0], 0
}

// empty reports whether no events remain.
func (q *eventQueue) empty() bool { return len(q.heap) == 0 }

// get returns a pooled event (zeroed), a reserved one or a fresh one.
func (q *eventQueue) get() *event {
	if n := len(q.free); n > 0 {
		e := q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
		return e
	}
	if len(q.slab) == 0 {
		return &event{}
	}
	e := &q.slab[0]
	q.slab = q.slab[1:]
	return e
}

// put recycles a dispatched event. References are cleared so pooled events
// never retain payloads or timer closures.
func (q *eventQueue) put(e *event) {
	*e = event{}
	q.free = append(room(q.free), e)
}
