package transport

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"
	"time"
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
// a concurrent receiver per side; run under -race this pins the endpoint's
// internal synchronization.
func TestConcurrentSendRecv(t *testing.T) {
	const senders, perSender = 8, 50
	run := func(t *testing.T, a, b Endpoint) {
		t.Helper()
		total := senders * perSender
		qa := a.Bus().Subscribe(64, 1)
		qb := b.Bus().Subscribe(64, 1)
		var recvWG sync.WaitGroup
		drain := func(q *Queue, bus *Bus) {
			defer recvWG.Done()
			for n := 0; n < total; n++ {
				select {
				case <-q.C:
				case <-bus.Done():
					t.Errorf("bus closed after %d/%d frames", n, total)
					return
				}
			}
		}
		recvWG.Add(2)
		go drain(qa, a.Bus())
		go drain(qb, b.Bus())

		var sendWG sync.WaitGroup
		send := func(from Endpoint, to NodeID) {
			defer sendWG.Done()
			payload := []byte("concurrent-payload")
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
	}
	t.Run("loopback", func(t *testing.T) {
		lb := NewLoopback()
		a, err := lb.Attach(Config{Self: 1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { a.Close() })
		b, err := lb.Attach(Config{Self: 2})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { b.Close() })
		run(t, a, b)
	})
	t.Run("tcp", func(t *testing.T) {
		a, b := tcpPair(t, nil)
		run(t, a, b)
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

// TestFramePayloadOwnership pins the ownership rule stated on Endpoint from
// both ends of a connection. The receiver keeps frame k's payload — a
// sub-slice of the buffer that frame was read into — while 50 more frames
// arrive behind it, and finds it byte-unchanged: no read buffer is recycled
// under a delivered frame. The sender hands the same payload to several
// Sends, uncopied, and finds it unwritten once all are delivered. Sizes
// straddle the connection reader's buffer, so both of its read paths
// deliver. Under -race a transport write to either side's bytes is a
// reported race with the test's reads.
func TestFramePayloadOwnership(t *testing.T) {
	const later = 50
	pattern := func(k int) []byte {
		p := make([]byte, 1+(k*977)%9000)
		for i := range p {
			p[i] = byte(k + i)
		}
		return p
	}
	run := func(t *testing.T, a, b Endpoint) {
		t.Helper()
		q := b.Bus().Subscribe(later+1, 1)
		recv := func() Frame {
			t.Helper()
			select {
			case f := <-q.C:
				return f
			case <-time.After(5 * time.Second):
				t.Fatal("frame never delivered")
				return Frame{}
			}
		}
		sent := make([][]byte, later+1)
		for k := range sent {
			sent[k] = pattern(k)
			if k%5 == 4 {
				sent[k] = sent[k-1] // one payload behind two frames
			}
			if err := a.Send(b.Self(), &Frame{Kind: 1, Round: uint32(k), Payload: sent[k]}); err != nil {
				t.Fatal(err)
			}
		}
		held := recv()
		if held.Round != 0 {
			t.Fatalf("first frame delivered is round %d", held.Round)
		}
		for k := 1; k <= later; k++ {
			f := recv()
			want := pattern(k)
			if k%5 == 4 {
				want = pattern(k - 1)
			}
			if int(f.Round) != k || !bytes.Equal(f.Payload, want) {
				t.Fatalf("frame %d arrived as round %d with %d payload bytes", k, f.Round, len(f.Payload))
			}
			if !bytes.Equal(sent[k], want) {
				t.Fatalf("sender's payload %d was written after Send", k)
			}
		}
		if !bytes.Equal(held.Payload, pattern(0)) {
			t.Fatalf("payload held across %d later frames changed", later)
		}
	}
	t.Run("loopback", func(t *testing.T) {
		lb := NewLoopback()
		a, err := lb.Attach(Config{Self: 1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { a.Close() })
		b, err := lb.Attach(Config{Self: 2})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { b.Close() })
		run(t, a, b)
	})
	t.Run("tcp", func(t *testing.T) {
		a, b := tcpPair(t, nil)
		run(t, a, b)
	})
}
