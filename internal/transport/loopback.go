package transport

import (
	"fmt"
	"sync"
	"time"
)

// Loopback is the in-process wire: a registry of endpoints exchanging
// encoded frames through per-endpoint inbox queues. Frames still round-trip
// through the full encode → enqueue → decode → dupe-check → bus path, so
// byte accounting, fault fates, dupe suppression, and trace spans are
// identical to the TCP backend — only the transport medium differs. That
// is the property the loopback≡TCP conformance golden pins.
type Loopback struct {
	mu  sync.Mutex
	eps map[NodeID]*LoopbackEndpoint
}

// NewLoopback returns an empty in-process wire.
func NewLoopback() *Loopback {
	return &Loopback{eps: map[NodeID]*LoopbackEndpoint{}}
}

// LoopbackEndpoint is one node's attachment to a Loopback wire.
type LoopbackEndpoint struct {
	epCore
	net    *Loopback
	in     *frameQueue
	quit   chan struct{}
	closed sync.Once
	wg     sync.WaitGroup // receive loop
	timers sync.WaitGroup // delayed (reordered) sends in flight
	linger time.Duration
}

// Attach creates cfg.Self's endpoint on the wire and starts its receive
// loop. Attaching an id twice is an error.
func (l *Loopback) Attach(cfg Config) (*LoopbackEndpoint, error) {
	ep := &LoopbackEndpoint{
		epCore: *newEpCore(cfg, "loopback"),
		net:    l,
		in:     newFrameQueue(cfg.queueCap()),
		quit:   make(chan struct{}),
		linger: cfg.linger(),
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.eps[cfg.Self]; ok {
		return nil, fmt.Errorf("transport: loopback node %d already attached", cfg.Self)
	}
	l.eps[cfg.Self] = ep
	ep.wg.Add(1)
	go ep.recvLoop()
	return ep, nil
}

func (l *Loopback) lookup(id NodeID) *LoopbackEndpoint {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.eps[id]
}

// Self returns this endpoint's node id.
func (e *LoopbackEndpoint) Self() NodeID { return e.self }

// Addr returns the pseudo-address of the in-process wire.
func (e *LoopbackEndpoint) Addr() string { return "loopback" }

// Bus returns the endpoint's dispatch layer.
func (e *LoopbackEndpoint) Bus() *Bus { return e.bus }

// Send applies f's fault fate and enqueues the surviving copies to the
// peer's inbox, each encoded into its own buffer from the process's free
// list — the buffer the receiver will release.
func (e *LoopbackEndpoint) Send(to NodeID, f *Frame) error {
	select {
	case <-e.quit:
		return ErrClosed
	default:
	}
	peer := e.net.lookup(to)
	if peer == nil {
		return fmt.Errorf("%w: %d", ErrUnknownPeer, to)
	}
	copies, delay := e.prepareSend(to, f)
	for i := 0; i < copies; i++ {
		raw := encode(f)
		if delay > 0 {
			e.timers.Add(1)
			go func() {
				defer e.timers.Done()
				t := time.NewTimer(delay)
				defer t.Stop()
				select {
				case <-t.C:
					peer.in.push(raw, peer.quit)
				case <-e.quit:
				}
			}()
		} else {
			peer.in.push(raw, peer.quit)
		}
	}
	return nil
}

func (e *LoopbackEndpoint) recvLoop() {
	defer e.wg.Done()
	for {
		select {
		case <-e.in.ready:
			for raw, ok := e.in.pop(); ok; raw, ok = e.in.pop() {
				e.deliver(raw)
			}
		case <-e.quit:
			return
		}
	}
}

// Stats returns a snapshot of the endpoint's wire counters.
func (e *LoopbackEndpoint) Stats() StatsSnapshot { return e.snapshot() }

// Close detaches the endpoint: delayed sends are given up to the linger
// to fire, then the receive loop stops and the bus closes. Idempotent.
func (e *LoopbackEndpoint) Close() error {
	e.closed.Do(func() {
		// Give in-flight delayed sends a bounded window before cutting them
		// off; bus.Close first so a drain blocked on a full queue releases.
		done := make(chan struct{})
		go func() { e.timers.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(e.linger):
		}
		e.bus.Close()
		close(e.quit)
		e.wg.Wait()
		e.timers.Wait()
		e.net.mu.Lock()
		delete(e.net.eps, e.self)
		e.net.mu.Unlock()
	})
	return nil
}

var _ Endpoint = (*LoopbackEndpoint)(nil)
