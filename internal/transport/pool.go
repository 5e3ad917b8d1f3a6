package transport

import (
	"slices"
	"sync"
)

// Free-list bounds. An endpoint keeps at most poolBufs idle frame buffers,
// each of at most poolBufMax bytes, so recycling pins at most 8 MiB per
// endpoint however hostile or bursty its traffic. A frame larger than
// poolBufMax is read into a one-off buffer the GC takes back.
const (
	poolBufs   = 32
	poolBufMax = 256 << 10
)

// bufPool is an endpoint's free list of whole-frame wire buffers (length
// prefix, header and payload in one slice). Send encodes into one and the
// receive path reads into one; Release hands a delivered frame's buffer
// back. A buffer never returned is simply collected, so forgetting to
// release costs an allocation, never correctness.
type bufPool struct {
	mu   sync.Mutex
	free [][]byte
}

// get returns a buffer of length n: the smallest idle one that fits, or a
// fresh one. When idle buffers exist but none fits, one of them is evicted,
// so the list drifts toward the sizes in use instead of filling up with
// buffers too small for them.
func (p *bufPool) get(n int) []byte {
	if n <= poolBufMax {
		p.mu.Lock()
		best := -1
		for i, b := range p.free {
			if cap(b) >= n && (best < 0 || cap(b) < cap(p.free[best])) {
				best = i
			}
		}
		if best < 0 && len(p.free) > 0 {
			p.free = p.drop(len(p.free) - 1)
		}
		if best >= 0 {
			b := p.free[best]
			p.free = p.drop(best)
			p.mu.Unlock()
			return b[:n]
		}
		p.mu.Unlock()
	}
	// Grow rounds the capacity up to the allocator's size class, which
	// costs nothing and lets a slightly larger frame reuse the buffer.
	return slices.Grow([]byte(nil), n)[:n]
}

// drop removes free[i] (order is not kept) and returns the shortened list.
func (p *bufPool) drop(i int) [][]byte {
	last := len(p.free) - 1
	p.free[i] = p.free[last]
	p.free[last] = nil
	return p.free[:last]
}

// put returns b to the free list unless the list is full or b is larger
// than the pool keeps. b must not be used again by the caller.
func (p *bufPool) put(b []byte) {
	if b == nil || cap(b) > poolBufMax {
		return
	}
	p.mu.Lock()
	if len(p.free) < poolBufs {
		p.free = append(p.free, b[:0])
	}
	p.mu.Unlock()
}

// frameQueue is a FIFO of encoded frames with one consumer: a TCP peer's
// writer or a loopback endpoint's receive loop. Its ring grows by doubling
// with the frames actually queued and never beyond limit (Config.QueueCap),
// at which point push waits for the consumer — the backpressure a buffered
// channel of limit slots gives, without allocating the slots up front.
type frameQueue struct {
	mu    sync.Mutex
	ring  [][]byte
	head  int // index of the oldest frame
	n     int // frames queued
	limit int
	// ready holds a token whenever frames may be queued; the consumer waits
	// on it and then pops until empty.
	ready chan struct{}
	// room, when non-nil, is closed by the next pop to wake full pushers.
	room chan struct{}
}

func newFrameQueue(limit int) *frameQueue {
	return &frameQueue{limit: limit, ready: make(chan struct{}, 1)}
}

// push appends raw, waiting while the queue is full. It gives up, returning
// false, once cancel is closed.
func (q *frameQueue) push(raw []byte, cancel <-chan struct{}) bool {
	select {
	case <-cancel:
		return false
	default:
	}
	q.mu.Lock()
	for q.n >= q.limit {
		if q.room == nil {
			q.room = make(chan struct{})
		}
		room := q.room
		q.mu.Unlock()
		select {
		case <-room:
		case <-cancel:
			return false
		}
		q.mu.Lock()
	}
	if q.n == len(q.ring) {
		grown := make([][]byte, min(max(4, 2*len(q.ring)), q.limit))
		for i := 0; i < q.n; i++ {
			grown[i] = q.ring[(q.head+i)%len(q.ring)]
		}
		q.ring, q.head = grown, 0
	}
	q.ring[(q.head+q.n)%len(q.ring)] = raw
	q.n++
	q.mu.Unlock()
	select {
	case q.ready <- struct{}{}:
	default:
	}
	return true
}

// pop removes and returns the oldest frame, reporting false when the queue
// is empty.
func (q *frameQueue) pop() ([]byte, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.n == 0 {
		return nil, false
	}
	raw := q.ring[q.head]
	q.ring[q.head] = nil
	q.head = (q.head + 1) % len(q.ring)
	q.n--
	if q.room != nil {
		close(q.room)
		q.room = nil
	}
	return raw, true
}
