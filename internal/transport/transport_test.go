package transport

import (
	"bytes"
	"errors"
	"math/bits"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"abdhfl/internal/fault"
	"abdhfl/internal/freelist"
	"abdhfl/internal/telemetry"
)

// tcpPair returns two connected TCP endpoints (ids 1 and 2) with cleanup
// registered.
func tcpPair(t *testing.T, cfg func(id NodeID) Config) (*TCPEndpoint, *TCPEndpoint) {
	t.Helper()
	if cfg == nil {
		cfg = func(id NodeID) Config { return Config{Self: id} }
	}
	a, err := ListenTCP(cfg(1), "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	b, err := ListenTCP(cfg(2), "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	a.AddPeer(2, b.Addr())
	b.AddPeer(1, a.Addr())
	return a, b
}

// waitStat polls an endpoint counter until it reaches want or the deadline
// passes — receive-side counters update asynchronously behind the sockets.
func waitStat(t *testing.T, what string, want int64, get func() int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if got := get(); got >= want {
			if got > want {
				t.Fatalf("%s = %d, want %d", what, got, want)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d after 5s, want %d", what, get(), want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestConcurrentSendRecv hammers both backends with concurrent senders and
// a concurrent receiver per side that checks and releases every frame; run
// under -race this pins the endpoint's internal synchronization — the free
// lists senders, writers, readers and receivers share, and outbound queues
// and inboxes of QueueCap 4, so senders keep waiting on full queues.
func TestConcurrentSendRecv(t *testing.T) {
	const senders, perSender = 8, 50
	payload := []byte("concurrent-payload")
	endpointPairs(t, Config{QueueCap: 4}, 1, func(t *testing.T, pairs []pair) {
		t.Helper()
		a, b := pairs[0].a, pairs[0].b
		total := senders * perSender
		qa := a.Bus().Subscribe(64, 1)
		qb := b.Bus().Subscribe(64, 1)
		var recvWG sync.WaitGroup
		drain := func(ep Endpoint, q *Queue) {
			defer recvWG.Done()
			for n := 0; n < total; n++ {
				select {
				case f := <-q.C:
					if !bytes.Equal(f.Payload, payload) {
						t.Errorf("node %d received %q", ep.Self(), f.Payload)
					}
					ep.Release(&f)
				case <-ep.Bus().Done():
					t.Errorf("bus closed after %d/%d frames", n, total)
					return
				}
			}
		}
		recvWG.Add(2)
		go drain(a, qa)
		go drain(b, qb)

		var sendWG sync.WaitGroup
		send := func(from Endpoint, to NodeID) {
			defer sendWG.Done()
			for i := 0; i < perSender; i++ {
				if err := from.Send(to, &Frame{Kind: 1, Round: uint32(i), Payload: payload}); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}
		for i := 0; i < senders; i++ {
			sendWG.Add(2)
			go send(a, 2)
			go send(b, 1)
		}
		sendWG.Wait()
		recvWG.Wait()

		for _, ep := range []Endpoint{a, b} {
			s := ep.Stats()
			if s.FramesSent != int64(total) || s.FramesDelivered != int64(total) {
				t.Errorf("node %d: sent %d delivered %d, want %d", ep.Self(), s.FramesSent, s.FramesDelivered, total)
			}
			if s.DecodeErrors != 0 || s.DupesSuppressed != 0 {
				t.Errorf("node %d: decode errors %d, dupes %d on a clean wire", ep.Self(), s.DecodeErrors, s.DupesSuppressed)
			}
		}
	})
}

// TestTCPInboundHostility drives a TCP endpoint's read path directly with
// raw connections: cuts mid-frame (tolerated — sender-side retransmission
// territory), per-frame corruption (counted, framing preserved), and
// framing-level corruption (counted, connection dropped).
func TestTCPInboundHostility(t *testing.T) {
	ep, err := ListenTCP(Config{Self: 1, MaxFrame: 1 << 16}, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ep.Close() })
	q := ep.Bus().Subscribe(16, 1)

	dial := func() net.Conn {
		t.Helper()
		c, err := net.Dial("tcp", ep.Addr())
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	frame := func(seq uint64) []byte {
		return EncodeFrame(&Frame{Kind: 1, From: 2, To: 1, Seq: seq, Payload: []byte("hostile-test")})
	}
	mustRecv := func(wantSeq uint64) {
		t.Helper()
		select {
		case f := <-q.C:
			if f.Seq != wantSeq {
				t.Fatalf("received seq %d, want %d", f.Seq, wantSeq)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("frame %d never delivered", wantSeq)
		}
	}

	t.Run("disconnect-mid-frame", func(t *testing.T) {
		c := dial()
		raw := frame(1)
		if _, err := c.Write(raw); err != nil {
			t.Fatal(err)
		}
		mustRecv(1)
		// Cut the connection halfway through the next frame: wire luck, not
		// corruption — the frame is lost but no decode error is charged.
		if _, err := c.Write(frame(2)[:headerSize+3]); err != nil {
			t.Fatal(err)
		}
		c.Close()
		time.Sleep(50 * time.Millisecond)
		if n := ep.Stats().DecodeErrors; n != 0 {
			t.Fatalf("decode errors after mid-frame cut: %d", n)
		}
	})

	t.Run("corrupt-frame-keeps-connection", func(t *testing.T) {
		c := dial()
		defer c.Close()
		bad := frame(3)
		bad[4] = 0 // break the magic; lengths stay consistent, framing holds
		if _, err := c.Write(bad); err != nil {
			t.Fatal(err)
		}
		waitStat(t, "decode errors", 1, func() int64 { return ep.Stats().DecodeErrors })
		// The framing layer resynchronized: the next frame on the same
		// connection still delivers.
		if _, err := c.Write(frame(4)); err != nil {
			t.Fatal(err)
		}
		mustRecv(4)
	})

	t.Run("hostile-length-drops-connection", func(t *testing.T) {
		c := dial()
		defer c.Close()
		if _, err := c.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF}); err != nil {
			t.Fatal(err)
		}
		waitStat(t, "decode errors", 2, func() int64 { return ep.Stats().DecodeErrors })
		// The endpoint hung up on the desynced connection: reads now fail.
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := c.Read(make([]byte, 1)); err == nil {
			t.Fatal("connection still open after a hostile length claim")
		}
	})

	t.Run("wire-duplicate-suppressed", func(t *testing.T) {
		c := dial()
		defer c.Close()
		raw := frame(9)
		for i := 0; i < 3; i++ {
			if _, err := c.Write(raw); err != nil {
				t.Fatal(err)
			}
		}
		mustRecv(9)
		waitStat(t, "dupes suppressed", 2, func() int64 { return ep.Stats().DupesSuppressed })
		if n := ep.Stats().FramesDelivered; n < 1 {
			t.Fatalf("frames delivered: %d", n)
		}
	})
}

func TestEndpointLifecycleErrors(t *testing.T) {
	a, _ := tcpPair(t, nil)
	if err := a.Send(99, &Frame{Kind: 1}); !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("send to unknown peer: %v, want ErrUnknownPeer", err)
	}
	a.Close()
	if err := a.Send(2, &Frame{Kind: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close: %v, want ErrClosed", err)
	}
	a.Close() // idempotent
}

// TestDialFailuresCounted sends to a peer whose address refuses
// connections: the writer's failed dials are counted in Stats and in
// telemetry, and, being wire luck, stay out of the deterministic and the
// sender-side subsets the loopback≡TCP comparisons use.
func TestDialFailuresCounted(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	refused := ln.Addr().String()
	ln.Close()
	reg := telemetry.New()
	a, err := ListenTCP(Config{Self: 1, Registry: reg, Linger: 50 * time.Millisecond}, "127.0.0.1:0", map[NodeID]string{2: refused})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	if err := a.Send(2, &Frame{Kind: 1}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for a.Stats().DialFailures == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no failed dial counted after 5s")
		}
		time.Sleep(2 * time.Millisecond)
	}
	s := a.Stats()
	if c := reg.Counter(`abdhfl_transport_dial_failures_total{backend="tcp"}`).Value(); c < 1 {
		t.Errorf("telemetry counts %d failed dials, stats %d", c, s.DialFailures)
	}
	if s.Deterministic().DialFailures != 0 || s.SenderSide().DialFailures != 0 {
		t.Error("failed dials counted in a deterministic subset")
	}
}

// TestSharedBookAddPeerIsPrivate pins ShareBook's contract: endpoints
// share one address book that none of them writes. While one endpoint adds
// peers, the others keep resolving peers through the book; under -race a
// write into the shared map is a reported race. Afterwards the caller's map
// is unchanged, only the adding endpoint knows the new peer, and the shared
// peers still carry frames.
func TestSharedBookAddPeerIsPrivate(t *testing.T) {
	eps := make([]*TCPEndpoint, 3)
	book := map[NodeID]string{}
	for i := range eps {
		ep, err := ListenTCP(Config{Self: NodeID(i)}, "127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ep.Close() })
		eps[i] = ep
		book[NodeID(i)] = ep.Addr()
	}
	for _, ep := range eps {
		ep.ShareBook(book)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			eps[0].AddPeer(NodeID(100+i), "127.0.0.1:1")
		}
		eps[0].AddPeer(2, eps[2].Addr())
	}()
	for _, ep := range eps[1:] {
		wg.Add(1)
		go func(ep *TCPEndpoint) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if err := ep.Send(NodeID(100+i), &Frame{Kind: 1}); !errors.Is(err, ErrUnknownPeer) {
					t.Errorf("node %d: send to a peer only node 0 added: %v, want ErrUnknownPeer", ep.Self(), err)
					return
				}
			}
		}(ep)
	}
	wg.Wait()
	if len(book) != len(eps) {
		t.Fatalf("shared book grew to %d entries, want %d", len(book), len(eps))
	}
	if _, ok := eps[0].book[100]; !ok {
		t.Fatal("node 0 lost the peer it added")
	}
	q := eps[2].Bus().Subscribe(4, 1)
	for _, ep := range eps[:2] {
		if err := ep.Send(2, &Frame{Kind: 1, Payload: []byte("via the book")}); err != nil {
			t.Fatal(err)
		}
		if f := recvFrame(t, q); string(f.Payload) != "via the book" {
			t.Fatalf("node 2 received %q", f.Payload)
		}
	}
}

// TestTCPPeerRestart pins reconnect-and-resend: frames sent while the peer
// is down are delivered once a new listener takes over the address, with
// the reconnect counted.
func TestTCPPeerRestart(t *testing.T) {
	a, b := tcpPair(t, func(id NodeID) Config { return Config{Self: id, Linger: 100 * time.Millisecond} })
	q := b.Bus().Subscribe(16, 1)

	if err := a.Send(2, &Frame{Kind: 1, Seq: 0, Payload: []byte("pre")}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-q.C:
	case <-time.After(5 * time.Second):
		t.Fatal("first frame never arrived")
	}

	// Restart the peer on the same address: the established connection
	// breaks, the writer redials and resends.
	addr := b.Addr()
	b.Close()
	b2, err := ListenTCP(Config{Self: 2}, addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b2.Close() })
	q2 := b2.Bus().Subscribe(16, 1)

	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := a.Send(2, &Frame{Kind: 1, Payload: []byte("post")}); err != nil {
			t.Fatal(err)
		}
		select {
		case <-q2.C:
			return
		case <-time.After(100 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("no frame arrived after peer restart")
		}
	}
}

// pair is two endpoints of one backend, a sending to b.
type pair struct{ a, b Endpoint }

// endpointPairs runs fn on n fresh pairs of endpoints (ids 1 and 2 in each)
// of each backend. Every endpoint of a process draws on the one free list.
func endpointPairs(t *testing.T, cfg Config, n int, fn func(t *testing.T, pairs []pair)) {
	t.Run("loopback", func(t *testing.T) {
		pairs := make([]pair, n)
		for i := range pairs {
			lb := NewLoopback()
			attach := func(id NodeID) *LoopbackEndpoint {
				c := cfg
				c.Self = id
				ep, err := lb.Attach(c)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { ep.Close() })
				return ep
			}
			pairs[i] = pair{attach(1), attach(2)}
		}
		fn(t, pairs)
	})
	t.Run("tcp", func(t *testing.T) {
		pairs := make([]pair, n)
		for i := range pairs {
			a, b := tcpPair(t, func(id NodeID) Config { c := cfg; c.Self = id; return c })
			pairs[i] = pair{a, b}
		}
		fn(t, pairs)
	})
}

// recvFrame takes the next frame off q, failing the test after 5s.
func recvFrame(t *testing.T, q *Queue) Frame {
	t.Helper()
	select {
	case f := <-q.C:
		return f
	case <-time.After(5 * time.Second):
		t.Fatal("frame never delivered")
		return Frame{}
	}
}

// The process list is shared by every endpoint, so a test that inspects it
// must not run beside other endpoint tests: none in this package is
// parallel.

// emptyFramePool borrows every idle buffer off the process's frame list and
// drops it.
func emptyFramePool() {
	bufs, _ := framePool.Idle()
	for _, b := range bufs {
		framePool.Get(1 << (bits.Len(uint(cap(b))) - 1))
	}
}

// TestFramePayloadOwnership pins the ownership rule stated on Endpoint from
// both ends of a connection, with two endpoint pairs drawing on the
// process's free list at once. Each sender encodes every frame from one
// scratch slice and overwrites it as soon as Send returns: what arrives is
// what was sent. Each receiver holds every third frame, never released,
// while the others arrive and are released, all under freelist's
// quarantine: a buffer given back is 0xff-filled at once and never lent
// again, so a frame whose buffer went back before it was delivered, or a
// held payload whose buffer went back, arrives or reads changed, and a
// write to a buffer after it went back is reported at the end. Wire sizes
// straddle the size classes (2^k and 2^k+1 bytes), up to one past the
// largest pooled class. Then, out of quarantine and alone on the emptied
// list, a frame after a release of its size is read into a recycled
// buffer. Under -race a read of the sender's slice after Send is a
// reported race.
func TestFramePayloadOwnership(t *testing.T) {
	const frames = 2 * 2 * (poolMaxShift - poolMinShift + 1)
	pattern := func(k, size int) []byte {
		p := make([]byte, size)
		for i := range p {
			p[i] = byte(k + i)
		}
		return p
	}
	sizeOf := func(k int) int {
		shift := poolMinShift + (k/2)%(poolMaxShift-poolMinShift+1)
		return 1<<shift + k%2 - headerSize
	}
	endpointPairs(t, Config{}, 2, func(t *testing.T, pairs []pair) {
		end := freelist.Quarantine()
		t.Cleanup(func() { end() }) // on a failure before the check below
		queues := make([]*Queue, len(pairs))
		sendErrs := make([]error, len(pairs))
		var wg sync.WaitGroup
		for i, p := range pairs {
			queues[i] = p.b.Bus().Subscribe(frames, 1)
			wg.Add(1)
			go func() {
				defer wg.Done()
				var scratch []byte
				for k := 0; k < frames; k++ {
					scratch = append(scratch[:0], pattern(k, sizeOf(k))...)
					if sendErrs[i] = p.a.Send(p.b.Self(), &Frame{Kind: 1, Round: uint32(k), Payload: scratch}); sendErrs[i] != nil {
						return
					}
					for i := range scratch {
						scratch[i] = 0xFF
					}
				}
			}()
		}
		var held []Frame
		for k := 0; k < frames; k++ {
			for i, q := range queues {
				f := recvFrame(t, q)
				if int(f.Round) != k || !bytes.Equal(f.Payload, pattern(k, sizeOf(k))) {
					t.Fatalf("pair %d: frame %d arrived as round %d with %d payload bytes", i, k, f.Round, len(f.Payload))
				}
				if k%3 == 0 {
					held = append(held, f)
					continue
				}
				pairs[i].b.Release(&f)
				if f.Payload != nil {
					t.Fatal("Release left the frame's payload set")
				}
			}
		}
		wg.Wait()
		if err := errors.Join(sendErrs...); err != nil {
			t.Fatal(err)
		}
		for _, f := range held {
			if k := int(f.Round); !bytes.Equal(f.Payload, pattern(k, sizeOf(k))) {
				t.Fatalf("held frame %d changed while later frames were released", k)
			}
		}
		if !end() {
			t.Fatal("a frame buffer was written, or given back again, after it went back to the free list")
		}

		for i, p := range pairs {
			emptyFramePool()
			send := func(k int) Frame {
				t.Helper()
				if err := p.a.Send(p.b.Self(), &Frame{Kind: 1, Round: uint32(k), Payload: pattern(k, 700)}); err != nil {
					t.Fatal(err)
				}
				return recvFrame(t, queues[i])
			}
			f1, f2 := send(frames), send(frames+1)
			// A TCP writer gives a frame's send buffer back after writing
			// it, so f2's could reach the list after the snapshot below and
			// be the one the next read takes. The writer gives it back
			// before it writes the next frame, so once a frame of another
			// size class has arrived it is on the list.
			if err := p.a.Send(p.b.Self(), &Frame{Kind: 1, Round: uint32(frames + 2)}); err != nil {
				t.Fatal(err)
			}
			settled := recvFrame(t, queues[i])
			p.b.Release(&settled)
			p.b.Release(&f1)
			p.b.Release(&f2)
			idle, _ := framePool.Idle()
			f := send(frames + 3)
			if !slices.ContainsFunc(idle, func(b []byte) bool { return &b[:1][0] == &f.buf[0] }) {
				t.Errorf("pair %d: a frame after a release of its size was read into a fresh buffer", i)
			}
			if !bytes.Equal(f.Payload, pattern(frames+3, 700)) {
				t.Errorf("pair %d: a frame in a recycled buffer arrived changed", i)
			}
		}
	})
}

// TestReleasePoolBounded releases more than the process's idle bound of
// frames, held across three endpoint pairs at once and each of the largest
// pooled class, plus one frame of exactly MaxFrame per pair — as a hostile
// peer may send, above every class. Every frame arrives intact, and once all
// are released the list holds at most poolIdleMax idle bytes, its count of
// them is the sum of its buffers, and it keeps no buffer above poolBufMax.
func TestReleasePoolBounded(t *testing.T) {
	const n, perPair, maxFrame = 3, 12, 1 << 20
	big := bytes.Repeat([]byte{0xAB}, maxFrame-headerSize)
	full := bytes.Repeat([]byte{0xCD}, poolBufMax-headerSize)
	endpointPairs(t, Config{MaxFrame: maxFrame}, n, func(t *testing.T, pairs []pair) {
		if n*perPair*poolBufMax <= poolIdleMax {
			t.Fatalf("%d frames of %d bytes do not exceed the idle bound", n*perPair, poolBufMax)
		}
		queues := make([]*Queue, n)
		for i, p := range pairs {
			queues[i] = p.b.Bus().Subscribe(perPair+1, 1)
			for k := 0; k <= perPair; k++ {
				payload := full
				if k == 0 {
					payload = big
				}
				if err := p.a.Send(p.b.Self(), &Frame{Kind: 1, Round: uint32(k), Payload: payload}); err != nil {
					t.Fatal(err)
				}
			}
		}
		var held []Frame
		for i, q := range queues {
			for k := 0; k <= perPair; k++ {
				f := recvFrame(t, q)
				want := full
				if f.Round == 0 {
					want = big
				}
				if !bytes.Equal(f.Payload, want) {
					t.Fatalf("pair %d: frame %d (%d payload bytes) arrived changed", i, f.Round, len(f.Payload))
				}
				held = append(held, f)
			}
		}
		for i := range held {
			pairs[i/(perPair+1)].b.Release(&held[i])
		}
		free, idle := framePool.Idle()
		sum := 0
		for _, buf := range free {
			sum += cap(buf)
			if cap(buf) > poolBufMax {
				t.Errorf("free list kept a %d-byte buffer, bound %d", cap(buf), poolBufMax)
			}
		}
		if sum != idle || idle > poolIdleMax {
			t.Errorf("free list holds %d idle bytes and counts %d, bound %d", sum, idle, poolIdleMax)
		}
	})
}

// TestLoopbackDuplicateCopiesOwnBuffers sends one frame under a plan that
// duplicates every frame. Each copy must be encoded into its own buffer: the
// receiver suppresses the second copy and releases it, and were the copies
// one buffer, that release would hand the delivered frame's bytes to the
// next frame off the wire.
func TestLoopbackDuplicateCopiesOwnBuffers(t *testing.T) {
	lb := NewLoopback()
	plan := &fault.Plan{Seed: 1, Duplicate: 1}
	a, err := lb.Attach(Config{Self: 1, Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	b, err := lb.Attach(Config{Self: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	q := b.Bus().Subscribe(4, 1)
	emptyFramePool()
	payload := []byte("duplicated-frame")
	if err := a.Send(2, &Frame{Kind: 1, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	f := recvFrame(t, q)
	waitStat(t, "dupes suppressed", 1, func() int64 { return b.Stats().DupesSuppressed })
	if a.Stats().FaultDuplicated != 1 {
		t.Fatalf("fault duplicated = %d, want 1", a.Stats().FaultDuplicated)
	}
	free, _ := framePool.Idle()
	if len(free) != 1 {
		t.Fatalf("free list after the suppressed copy: %d buffers, want 1", len(free))
	}
	if &free[0][:1][0] == &f.buf[0] {
		t.Fatal("the suppressed copy released the delivered frame's buffer")
	}
	if err := a.Send(2, &Frame{Kind: 1, Round: 1, Payload: []byte("next-frame-overwrites")}); err != nil {
		t.Fatal(err)
	}
	recvFrame(t, q)
	if !bytes.Equal(f.Payload, payload) {
		t.Fatalf("delivered payload changed to %q", f.Payload)
	}
}
