package transport

import (
	"sync"

	"abdhfl/internal/freelist"
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
// endpoint; the transport keeps freelist's ownership rule. A buffer never
// given back is simply collected.
var framePool = freelist.NewClasses(poolMinShift, poolMaxShift, poolIdleMax)

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
