package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"sync"
	"time"
)

// TCPEndpoint is the socket-backed wire: one listener accepting inbound
// peer connections, and one lazily-dialed outbound connection per peer
// with retry, exponential dial backoff, and reconnect-and-resend on write
// failure. Retransmissions after a reconnect can re-deliver a frame the
// peer already processed — the receiver's DupeMap absorbs them, which is
// why duplicate suppression lives in the shared receive path rather than
// in either backend.
type TCPEndpoint struct {
	epCore
	ln       net.Listener
	linger   time.Duration
	queueCap int

	mu sync.Mutex
	// book maps peer ids to dial addresses. A shared book (ShareBook) is
	// read by other endpoints too, so AddPeer copies it before writing.
	book    map[NodeID]string
	shared  bool
	peers   map[NodeID]*tcpPeer
	conns   map[net.Conn]struct{}
	closing bool

	// sealed stops new enqueues and tells writers to drain; quit then cuts
	// stuck dials and delayed sends. Two stages so Close can flush queued
	// frames onto the wire before tearing connections down.
	sealed chan struct{}
	quit   chan struct{}
	closed sync.Once
	wg     sync.WaitGroup // accept + read loops
	timers sync.WaitGroup // delayed (reordered) sends in flight
}

// tcpPeer is one outbound write queue and its writer goroutine. Each queued
// frame is whole — length prefix, header and payload in one buffer from the
// process's free list — and the writer returns it there once written.
type tcpPeer struct {
	addr string
	q    *frameQueue
	done chan struct{}
}

// Dial/backoff tuning for the outbound writers.
const (
	dialTimeout  = 2 * time.Second
	dialBackoff  = 25 * time.Millisecond
	dialBackoffM = 1 * time.Second
)

// ListenTCP binds listenAddr (e.g. "127.0.0.1:0"), starts the accept
// loop, and returns the endpoint. book maps every peer id to the address
// it listens on; outbound connections are dialed lazily on first Send.
func ListenTCP(cfg Config, listenAddr string, book map[NodeID]string) (*TCPEndpoint, error) {
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", listenAddr, err)
	}
	e := &TCPEndpoint{
		epCore:   *newEpCore(cfg, "tcp"),
		ln:       ln,
		book:     make(map[NodeID]string, len(book)),
		linger:   cfg.linger(),
		queueCap: cfg.queueCap(),
		peers:    map[NodeID]*tcpPeer{},
		conns:    map[net.Conn]struct{}{},
		sealed:   make(chan struct{}),
		quit:     make(chan struct{}),
	}
	for id, addr := range book {
		e.book[id] = addr
	}
	e.wg.Add(1)
	go e.acceptLoop()
	return e, nil
}

// Self returns this endpoint's node id.
func (e *TCPEndpoint) Self() NodeID { return e.self }

// Addr returns the bound listen address (resolved port included).
func (e *TCPEndpoint) Addr() string { return e.ln.Addr().String() }

// Bus returns the endpoint's dispatch layer.
func (e *TCPEndpoint) Bus() *Bus { return e.bus }

// Send applies f's fault fate and enqueues the surviving copies to the
// peer's writer, each encoded into its own buffer from the process's free
// list.
func (e *TCPEndpoint) Send(to NodeID, f *Frame) error {
	p, err := e.peer(to)
	if err != nil {
		return err
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
					e.enqueue(p, raw)
				case <-e.quit:
				}
			}()
		} else {
			e.enqueue(p, raw)
		}
	}
	return nil
}

// enqueue hands one frame to a peer's writer; frames arriving after Close
// seals the queues are abandoned and counted.
func (e *TCPEndpoint) enqueue(p *tcpPeer, raw []byte) {
	if !p.q.push(raw, e.sealed) {
		e.stats.SendErrors.Add(1)
	}
}

// AddPeer registers (or updates) a peer's dial address after the endpoint
// is listening — the bootstrap order for in-process clusters, where every
// listener must bind before any address is known. Updating an address does
// not affect a writer already created for the old one.
func (e *TCPEndpoint) AddPeer(id NodeID, addr string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.shared {
		own := make(map[NodeID]string, len(e.book)+1)
		maps.Copy(own, e.book)
		e.book, e.shared = own, false
	}
	e.book[id] = addr
}

// ShareBook makes book this endpoint's address book without copying it, so
// the endpoints of an in-process cluster, which learn their addresses only
// once every listener is bound, hold one book between them rather than a
// copy each; the book may list the endpoint's own id. The caller must not
// write book afterwards; neither does the endpoint (a later AddPeer writes
// a private copy).
func (e *TCPEndpoint) ShareBook(book map[NodeID]string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.book, e.shared = book, true
}

// peer returns (creating on first use) the outbound writer for id.
func (e *TCPEndpoint) peer(id NodeID) (*tcpPeer, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closing {
		return nil, ErrClosed
	}
	if p, ok := e.peers[id]; ok {
		return p, nil
	}
	addr, ok := e.book[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownPeer, id)
	}
	p := &tcpPeer{addr: addr, q: newFrameQueue(e.queueCap), done: make(chan struct{})}
	e.peers[id] = p
	go e.writeLoop(p)
	return p, nil
}

// writeLoop drains one peer's queue onto its connection, dialing lazily
// with exponential backoff and redialing (then resending the failed
// frame) when a write breaks. When Close seals the endpoint it drains
// whatever is queued and exits.
func (e *TCPEndpoint) writeLoop(p *tcpPeer) {
	defer close(p.done)
	var conn net.Conn
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	flush := func() {
		for raw, ok := p.q.pop(); ok; raw, ok = p.q.pop() {
			if !e.writeFrame(p, &conn, raw) {
				e.stats.SendErrors.Add(1)
			}
			framePool.Put(raw)
		}
	}
	for {
		select {
		case <-p.q.ready:
			flush()
		case <-e.sealed:
			flush()
			return
		}
	}
}

// writeFrame writes one encoded frame, (re)dialing as needed. Returns
// false when the endpoint quit before the frame could be written.
func (e *TCPEndpoint) writeFrame(p *tcpPeer, conn *net.Conn, raw []byte) bool {
	backoff := dialBackoff
	for {
		if *conn == nil {
			c, err := net.DialTimeout("tcp", p.addr, dialTimeout)
			if err != nil {
				e.stats.DialFailures.Add(1)
				e.counters.dialFailures.Inc()
				select {
				case <-e.quit:
					return false
				case <-time.After(backoff):
				}
				if backoff *= 2; backoff > dialBackoffM {
					backoff = dialBackoffM
				}
				continue
			}
			if tc, ok := c.(*net.TCPConn); ok {
				tc.SetNoDelay(true)
			}
			*conn = c
			backoff = dialBackoff
		}
		if _, err := (*conn).Write(raw); err != nil {
			(*conn).Close()
			*conn = nil
			e.stats.Reconnects.Add(1)
			e.counters.reconnects.Inc()
			select {
			case <-e.quit:
				return false
			default:
			}
			continue // redial and resend; the peer's dupe map absorbs repeats
		}
		return true
	}
}

func (e *TCPEndpoint) acceptLoop() {
	defer e.wg.Done()
	for {
		c, err := e.ln.Accept()
		if err != nil {
			return // listener closed
		}
		e.mu.Lock()
		if e.closing {
			e.mu.Unlock()
			c.Close()
			return
		}
		e.conns[c] = struct{}{}
		e.mu.Unlock()
		e.wg.Add(1)
		go e.readLoop(c)
	}
}

// readLoop decodes frames off one inbound connection and runs them
// through the shared receive path. A clean peer close ends the loop
// silently; a connection cut mid-frame is wire luck (the sender redials
// and resends), so it is tolerated without counting a decode error; a
// corrupt or oversized frame desyncs the framing, so the connection is
// counted and dropped.
func (e *TCPEndpoint) readLoop(c net.Conn) {
	defer e.wg.Done()
	defer func() {
		c.Close()
		e.mu.Lock()
		delete(e.conns, c)
		e.mu.Unlock()
	}()
	for {
		raw, err := readRawFrame(c, e.maxFrame)
		if err != nil {
			if errors.Is(err, ErrCorruptFrame) || errors.Is(err, ErrFrameTooLarge) {
				e.stats.DecodeErrors.Add(1)
				e.counters.decodeErrs.Inc()
			}
			return
		}
		e.deliver(raw)
	}
}

// readRawFrame reads one length-prefixed frame straight from r into a buffer
// from framePool and returns its full wire bytes (prefix included),
// validating the length claim against maxFrame before drawing the buffer.
func readRawFrame(r io.Reader, maxFrame int) ([]byte, error) {
	var lenbuf [4]byte
	if _, err := io.ReadFull(r, lenbuf[:]); err != nil {
		return nil, err
	}
	body := binary.BigEndian.Uint32(lenbuf[:])
	if int64(body) < headerBody {
		return nil, fmt.Errorf("%w: body length %d below header size", ErrCorruptFrame, body)
	}
	if int64(body)+4 > int64(maxFrame) {
		return nil, ErrFrameTooLarge
	}
	buf := framePool.Get(4 + int(body))
	copy(buf, lenbuf[:])
	if _, err := io.ReadFull(r, buf[4:]); err != nil {
		framePool.Put(buf)
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return buf, nil
}

// Stats returns a snapshot of the endpoint's wire counters.
func (e *TCPEndpoint) Stats() StatsSnapshot { return e.snapshot() }

// Close shuts the endpoint down in two stages: seal (stop new enqueues,
// let writers flush queued frames onto the wire, bounded by the linger),
// then quit (cut stuck dials and delayed sends, close the listener and
// connections, close the bus). Idempotent.
func (e *TCPEndpoint) Close() error {
	e.closed.Do(func() {
		// Let in-flight delayed sends enqueue before sealing the queues.
		tdone := make(chan struct{})
		go func() { e.timers.Wait(); close(tdone) }()
		select {
		case <-tdone:
		case <-time.After(e.linger):
		}
		e.mu.Lock()
		e.closing = true
		peers := make([]*tcpPeer, 0, len(e.peers))
		for _, p := range e.peers {
			peers = append(peers, p)
		}
		e.mu.Unlock()
		close(e.sealed)
		drained := make(chan struct{})
		go func() {
			for _, p := range peers {
				<-p.done
			}
			close(drained)
		}()
		select {
		case <-drained:
		case <-time.After(e.linger):
		}
		close(e.quit)
		e.ln.Close()
		e.mu.Lock()
		for c := range e.conns {
			c.Close()
		}
		e.mu.Unlock()
		e.bus.Close()
		<-drained
		e.wg.Wait()
		e.timers.Wait()
	})
	return nil
}

var _ Endpoint = (*TCPEndpoint)(nil)
