package transport

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"abdhfl/internal/fault"
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
	endpointPairs(t, Config{QueueCap: 4}, func(t *testing.T, a, b Endpoint, _ *bufPool) {
		t.Helper()
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

// endpointPairs runs fn on a fresh pair of endpoints (ids 1 and 2) of each
// backend, handing it the receiver's free list as well.
func endpointPairs(t *testing.T, cfg Config, fn func(t *testing.T, a, b Endpoint, pool *bufPool)) {
	t.Run("loopback", func(t *testing.T) {
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
		a, b := attach(1), attach(2)
		fn(t, a, b, &b.pool)
	})
	t.Run("tcp", func(t *testing.T) {
		a, b := tcpPair(t, func(id NodeID) Config { c := cfg; c.Self = id; return c })
		fn(t, a, b, &b.pool)
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

// idle returns a copy of the pool's free list.
func (p *bufPool) idle() [][]byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([][]byte(nil), p.free...)
}

// TestFramePayloadOwnership pins the ownership rule stated on Endpoint from
// both ends of a connection. The sender encodes every frame from one scratch
// slice and overwrites it as soon as Send returns: what arrives is what was
// sent. The receiver holds frame 0, never released, while 50 later frames
// arrive and are released — their buffers go back to the free list under
// it — and finds it byte-unchanged. In lock step, a released buffer carries
// the next frame of its size. Sizes straddle the connection reader's buffer,
// so both of its read paths deliver. Under -race a transport write to a held
// payload, or a read of the sender's slice after Send, is a reported race.
func TestFramePayloadOwnership(t *testing.T) {
	const later = 50
	pattern := func(k, size int) []byte {
		p := make([]byte, size)
		for i := range p {
			p[i] = byte(k + i)
		}
		return p
	}
	sizeOf := func(k int) int { return 1 + (k*977)%9000 }
	endpointPairs(t, Config{}, func(t *testing.T, a, b Endpoint, _ *bufPool) {
		q := b.Bus().Subscribe(later+1, 1)
		var scratch []byte
		send := func(k, size int) {
			t.Helper()
			scratch = append(scratch[:0], pattern(k, size)...)
			if err := a.Send(b.Self(), &Frame{Kind: 1, Round: uint32(k), Payload: scratch}); err != nil {
				t.Fatal(err)
			}
			for i := range scratch {
				scratch[i] = 0xFF
			}
		}
		for k := 0; k <= later; k++ {
			send(k, sizeOf(k))
		}
		held := recvFrame(t, q)
		if held.Round != 0 {
			t.Fatalf("first frame delivered is round %d", held.Round)
		}
		for k := 1; k <= later; k++ {
			f := recvFrame(t, q)
			if int(f.Round) != k || !bytes.Equal(f.Payload, pattern(k, sizeOf(k))) {
				t.Fatalf("frame %d arrived as round %d with %d payload bytes", k, f.Round, len(f.Payload))
			}
			b.Release(&f)
			if f.Payload != nil {
				t.Fatal("Release left the frame's payload set")
			}
		}
		if !bytes.Equal(held.Payload, pattern(0, sizeOf(0))) {
			t.Fatalf("payload held across %d later frames changed", later)
		}

		send(later+1, 700)
		f := recvFrame(t, q)
		first := &f.Payload[0]
		b.Release(&f)
		send(later+2, 700)
		f = recvFrame(t, q)
		if &f.Payload[0] != first {
			t.Error("a frame after a release of its size was read into a fresh buffer")
		}
		if !bytes.Equal(f.Payload, pattern(later+2, 700)) {
			t.Error("a frame in a recycled buffer arrived changed")
		}
	})
}

// TestReleasePoolBounded fills a receiver's free list past both of its
// bounds: a frame larger than poolBufMax — as a hostile peer may send, up to
// MaxFrame — and more frames than poolBufs are delivered intact, held, then
// all released, and the list keeps neither the oversized buffer nor more
// than poolBufs.
func TestReleasePoolBounded(t *testing.T) {
	endpointPairs(t, Config{}, func(t *testing.T, a, b Endpoint, pool *bufPool) {
		const small = poolBufs + 8
		q := b.Bus().Subscribe(small+1, 1)
		big := bytes.Repeat([]byte{0xAB}, poolBufMax+1)
		if err := a.Send(b.Self(), &Frame{Kind: 1, Payload: big}); err != nil {
			t.Fatal(err)
		}
		for k := 1; k <= small; k++ {
			if err := a.Send(b.Self(), &Frame{Kind: 1, Round: uint32(k), Payload: []byte{byte(k)}}); err != nil {
				t.Fatal(err)
			}
		}
		frames := make([]Frame, 0, small+1)
		for k := 0; k <= small; k++ {
			frames = append(frames, recvFrame(t, q))
		}
		if !bytes.Equal(frames[0].Payload, big) {
			t.Fatal("oversized frame arrived changed")
		}
		for i := range frames {
			b.Release(&frames[i])
		}
		free := pool.idle()
		if len(free) > poolBufs {
			t.Errorf("free list holds %d buffers, bound %d", len(free), poolBufs)
		}
		for _, buf := range free {
			if cap(buf) > poolBufMax {
				t.Errorf("free list kept a %d-byte buffer, bound %d", cap(buf), poolBufMax)
			}
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
	payload := []byte("duplicated-frame")
	if err := a.Send(2, &Frame{Kind: 1, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	f := recvFrame(t, q)
	waitStat(t, "dupes suppressed", 1, func() int64 { return b.Stats().DupesSuppressed })
	if a.Stats().FaultDuplicated != 1 {
		t.Fatalf("fault duplicated = %d, want 1", a.Stats().FaultDuplicated)
	}
	free := b.pool.idle()
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
