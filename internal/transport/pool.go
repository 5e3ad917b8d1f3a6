package transport

import (
	"math/bits"
	"sync"
)

// Free-list bounds. Buffers are pooled in power-of-two size classes from
// 1<<poolMinShift to poolBufMax bytes, and the process keeps at most
// poolIdleMax bytes of them idle however hostile or bursty its traffic. A
// frame larger than poolBufMax is read into a one-off buffer the GC takes
// back.
const (
	poolMinShift = 6  // 64 B
	poolMaxShift = 18 // 256 KiB
	poolBufMax   = 1 << poolMaxShift
	poolIdleMax  = 8 << 20
)

// framePool is the process's one free list of whole-frame wire buffers
// (length prefix, header and payload in one slice), shared by every
// endpoint. Send encodes into one and the receive path reads into one;
// Release hands a delivered frame's buffer back. A buffer never returned is
// simply collected, so forgetting to release costs an allocation, never
// correctness.
var framePool bufPool

// bufPool keeps one LIFO stack of idle buffers per size class; a buffer of
// class c holds at least 1<<(poolMinShift+c) bytes.
type bufPool struct {
	mu   sync.Mutex
	idle int // bytes held in free
	free [poolMaxShift - poolMinShift + 1][][]byte
}

// get returns a buffer of length n: the last idle one of n's size class, or
// a fresh one of the class's capacity.
func (p *bufPool) get(n int) []byte {
	if n > poolBufMax {
		return make([]byte, n)
	}
	c := max(bits.Len(uint(n-1)), poolMinShift) - poolMinShift
	p.mu.Lock()
	if s := p.free[c]; len(s) > 0 {
		b := s[len(s)-1]
		s[len(s)-1] = nil
		p.free[c] = s[:len(s)-1]
		p.idle -= cap(b)
		p.mu.Unlock()
		return b[:n]
	}
	p.mu.Unlock()
	return make([]byte, n, 1<<(poolMinShift+c))
}

// put returns b to the free list unless b is outside the size classes or
// keeping it would exceed the idle bound. b must not be used again by the
// caller.
func (p *bufPool) put(b []byte) {
	if cap(b) > poolBufMax || cap(b) < 1<<poolMinShift {
		return
	}
	c := bits.Len(uint(cap(b))) - 1 - poolMinShift
	p.mu.Lock()
	if p.idle+cap(b) <= poolIdleMax {
		p.free[c] = append(p.free[c], b[:0])
		p.idle += cap(b)
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
