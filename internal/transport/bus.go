package transport

import "sync"

// Bus is the endpoint's dispatch layer: received frames are published to
// every Queue subscribed to their Kind, in subscription order. It plays the
// role an event broker plays in a real node process — the transport's
// receive loop publishes, protocol actors subscribe to the kinds they
// handle and consume from their own buffered queues, so a slow consumer of
// one kind cannot reorder another kind's stream.
//
// Publish applies backpressure: a full queue blocks the publisher until the
// consumer drains it or the bus closes. Closing the bus releases every
// blocked publisher and is observable through Done; queues are never closed
// (consumers select on Done alongside their queue channel).
type Bus struct {
	mu     sync.RWMutex
	subs   map[uint8][]*Queue
	done   chan struct{}
	closed bool
}

// Queue is one subscription: a buffered channel of frames. A frame's
// payload stays valid until the receiver releases it (see Endpoint), so
// consumers may retain it.
type Queue struct {
	C chan Frame
}

// NewBus returns an empty dispatch bus.
func NewBus() *Bus {
	return &Bus{subs: map[uint8][]*Queue{}, done: make(chan struct{})}
}

// Subscribe registers a new queue with the given buffer capacity (minimum
// 1) for every listed kind and returns it.
func (b *Bus) Subscribe(capacity int, kinds ...uint8) *Queue {
	if capacity < 1 {
		capacity = 1
	}
	q := &Queue{C: make(chan Frame, capacity)}
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, k := range kinds {
		b.subs[k] = append(b.subs[k], q)
	}
	return q
}

// Publish delivers f to every subscriber of f.Kind, blocking on full queues
// until space frees or the bus closes. It reports whether the frame reached
// at least one subscriber.
func (b *Bus) Publish(f Frame) bool {
	b.mu.RLock()
	qs := b.subs[f.Kind]
	b.mu.RUnlock()
	if len(qs) == 0 {
		return false
	}
	for i, q := range qs {
		select {
		case q.C <- f:
		case <-b.done:
			return i > 0
		}
	}
	return true
}

// Done is closed when the bus shuts down; consumers select on it alongside
// their queue channels.
func (b *Bus) Done() <-chan struct{} { return b.done }

// Close releases blocked publishers and marks the bus finished. Idempotent.
func (b *Bus) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.closed {
		b.closed = true
		close(b.done)
	}
}
