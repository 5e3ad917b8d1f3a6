package simnet

import (
	"runtime"
	"testing"

	"abdhfl/internal/rng"
)

// echoNode records delivered payloads and optionally replies.
type echoNode struct {
	got   []any
	times []Time
	reply bool
}

func (n *echoNode) OnMessage(ctx *Context, msg Message) {
	n.got = append(n.got, msg.Payload)
	n.times = append(n.times, ctx.Now())
	if n.reply && msg.From >= 0 {
		ctx.Send(msg.From, "ack")
	}
}

func TestDeliveryAndClock(t *testing.T) {
	s := New(Fixed(5), rng.New(1))
	a := &echoNode{}
	s.Register(1, a)
	s.Inject(1, "hello")
	if _, err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(a.got) != 1 || a.got[0] != "hello" {
		t.Fatalf("got %v", a.got)
	}
	if a.times[0] != 5 {
		t.Fatalf("delivery time = %v, want 5", a.times[0])
	}
}

func TestRequestReply(t *testing.T) {
	s := New(Fixed(2), rng.New(1))
	a := &echoNode{reply: true}
	b := &echoNode{}
	s.Register(1, a)
	s.Register(2, b)
	s.ScheduleAt(0, 2, func(ctx *Context) { ctx.Send(1, "ping") })
	if _, err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(b.got) != 1 || b.got[0] != "ack" {
		t.Fatalf("reply not delivered: %v", b.got)
	}
	if b.times[0] != 4 {
		t.Fatalf("round trip time = %v, want 4", b.times[0])
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []Time {
		s := New(Uniform{Min: 1, Max: 10}, rng.New(7))
		n := &echoNode{}
		s.Register(1, n)
		for i := 0; i < 50; i++ {
			s.Inject(1, i)
		}
		if _, err := s.Run(0); err != nil {
			t.Fatal(err)
		}
		return n.times
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestFIFOAmongSimultaneous(t *testing.T) {
	// Equal-latency messages scheduled in order must be delivered in order.
	s := New(Fixed(1), rng.New(1))
	n := &echoNode{}
	s.Register(1, n)
	for i := 0; i < 10; i++ {
		s.Inject(1, i)
	}
	if _, err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	for i, v := range n.got {
		if v.(int) != i {
			t.Fatalf("out-of-order delivery: %v", n.got)
		}
	}
}

func TestTimer(t *testing.T) {
	s := New(Fixed(1), rng.New(1))
	fired := Time(-1)
	s.ScheduleAt(3, 1, func(ctx *Context) {
		ctx.After(4, func(ctx *Context) { fired = ctx.Now() })
	})
	if _, err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if fired != 7 {
		t.Fatalf("timer fired at %v, want 7", fired)
	}
}

func TestRunUntilPausesAndResumes(t *testing.T) {
	s := New(Fixed(10), rng.New(1))
	n := &echoNode{}
	s.Register(1, n)
	s.Inject(1, "x")
	if _, err := s.Run(5); err != nil {
		t.Fatal(err)
	}
	if len(n.got) != 0 {
		t.Fatal("message delivered before its time")
	}
	if !s.Pending() {
		t.Fatal("pending event lost")
	}
	if s.Now() != 5 {
		t.Fatalf("clock = %v, want 5", s.Now())
	}
	if _, err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(n.got) != 1 {
		t.Fatal("message lost after resume")
	}
}

func TestStopEndsRunAndResumes(t *testing.T) {
	s := New(Fixed(1), rng.New(1))
	var fired []Time
	for at := Time(1); at <= 3; at++ {
		s.ScheduleAt(at, 1, func(ctx *Context) {
			fired = append(fired, ctx.Now())
			if ctx.Now() == 2 {
				s.Stop()
			}
		})
	}
	if n, err := s.Run(0); err != nil || n != 2 {
		t.Fatalf("Run = %d, %v; want 2 events before the stop", n, err)
	}
	if !s.Pending() || s.Now() != 2 {
		t.Fatalf("after Stop: pending %v, clock %v; want the third timer queued at 2", s.Pending(), s.Now())
	}
	if n, err := s.Run(0); err != nil || n != 1 {
		t.Fatalf("resumed Run = %d, %v; want the one queued event", n, err)
	}
	if len(fired) != 3 || fired[2] != 3 {
		t.Fatalf("fired %v", fired)
	}
}

// argLog records argument timers as (node, arg, time) triples.
type argLog struct{ fired [][3]float64 }

func (l *argLog) OnMessage(*Context, Message) {}
func (l *argLog) OnTimer(ctx *Context, arg int) {
	l.fired = append(l.fired, [3]float64{float64(ctx.Self()), float64(arg), float64(ctx.Now())})
}

// TestResetReplaysLikeNew: a simulator reset mid-run (events pending, a Stop
// set, counters non-zero) dispatches a second run exactly as a fresh one,
// reusing its queue.
func TestResetReplaysLikeNew(t *testing.T) {
	play := func(s *Sim, l *argLog) {
		for i := 0; i < 6; i++ {
			s.AtArg(NodeID(i%2), Time(i%3), i) // equal times: schedule order breaks ties
		}
		if _, err := s.Run(0); err != nil {
			t.Fatal(err)
		}
	}
	fresh := New(nil, nil)
	var want argLog
	fresh.Register(0, &want)
	fresh.Register(1, &want)
	play(fresh, &want)

	s := New(nil, nil)
	var got argLog
	s.Register(0, &got)
	s.Register(1, &got)
	s.Inject(1, "x")
	s.AtArg(0, 5, 9)
	s.AtArg(1, 7, 9)
	s.ScheduleAt(1, 0, func(*Context) { s.Stop() })
	if _, err := s.Run(0); err != nil || !s.Pending() {
		t.Fatalf("first run: %v, pending %v; want a stop with events queued", err, s.Pending())
	}
	s.Stop()
	s.Reset()
	if s.Pending() || s.Now() != 0 || s.seq != 0 || s.Stats() != (Stats{}) {
		t.Fatalf("after Reset: pending %v, clock %v, seq %d, stats %+v", s.Pending(), s.Now(), s.seq, s.Stats())
	}
	got.fired = nil
	play(s, &got)
	if len(got.fired) != len(want.fired) {
		t.Fatalf("reset run fired %v, fresh %v", got.fired, want.fired)
	}
	for i := range want.fired {
		if got.fired[i] != want.fired[i] {
			t.Fatalf("event %d: reset %v, fresh %v", i, got.fired[i], want.fired[i])
		}
	}
	if s.Stats() != fresh.Stats() {
		t.Fatalf("stats: reset %+v, fresh %+v", s.Stats(), fresh.Stats())
	}
}

func TestUnregisteredNodeDrops(t *testing.T) {
	s := New(Fixed(1), rng.New(1))
	s.Inject(99, "void")
	if _, err := s.Run(0); err != nil {
		t.Fatal(err)
	}
}

func TestStatsCounting(t *testing.T) {
	s := New(Fixed(1), rng.New(1))
	a := &echoNode{}
	s.Register(1, a)
	s.ScheduleAt(0, 2, func(ctx *Context) {
		ctx.Send(1, "m1")
		ctx.SendVolume(1, "m2", 2500)
	})
	if _, err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Messages != 2 {
		t.Fatalf("messages = %d", st.Messages)
	}
	if st.Volume != 2501 {
		t.Fatalf("volume = %d", st.Volume)
	}
}

func TestMaxEventsLivelockGuard(t *testing.T) {
	s := New(Fixed(1), rng.New(1))
	s.MaxEvents = 100
	// Two nodes ping-pong forever.
	a := &echoNode{reply: true}
	b := &echoNode{reply: true}
	s.Register(1, a)
	s.Register(2, b)
	s.ScheduleAt(0, 2, func(ctx *Context) { ctx.Send(1, "ping") })
	if _, err := s.Run(0); err == nil {
		t.Fatal("livelock not detected")
	}
}

func TestTraceHook(t *testing.T) {
	s := New(Fixed(1), rng.New(1))
	s.Register(1, &echoNode{})
	var traced []Message
	s.Trace = func(m Message) { traced = append(traced, m) }
	s.Inject(1, "x")
	if _, err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(traced) != 1 || traced[0].Payload != "x" {
		t.Fatalf("trace = %v", traced)
	}
}

func TestLatencyModels(t *testing.T) {
	r := rng.New(1)
	if d := (Fixed(3)).Delay(r, 0, 1); d != 3 {
		t.Fatalf("Fixed = %v", d)
	}
	u := Uniform{Min: 2, Max: 4}
	for i := 0; i < 100; i++ {
		d := u.Delay(r, 0, 1)
		if d < 2 || d > 4 {
			t.Fatalf("Uniform out of range: %v", d)
		}
	}
	l := LogNormal{Base: 5, Sigma: 0.5}
	for i := 0; i < 100; i++ {
		if d := l.Delay(r, 0, 1); d <= 0 {
			t.Fatalf("LogNormal non-positive: %v", d)
		}
	}
	p := PerLink(func(_ *rng.RNG, from, to NodeID) float64 { return float64(from + to) })
	if d := p.Delay(r, 2, 3); d != 5 {
		t.Fatalf("PerLink = %v", d)
	}
}

func TestNegativeTimerPanics(t *testing.T) {
	s := New(Fixed(1), rng.New(1))
	s.ScheduleAt(0, 1, func(ctx *Context) {
		defer func() {
			if recover() == nil {
				t.Error("negative After did not panic")
			}
		}()
		ctx.After(-1, func(*Context) {})
	})
	if _, err := s.Run(0); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEventThroughput(b *testing.B) {
	s := New(Fixed(1), rng.New(1))
	n := &echoNode{}
	s.Register(1, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Inject(1, i)
	}
	if _, err := s.Run(0); err != nil {
		b.Fatal(err)
	}
}

func TestCausalityProperty(t *testing.T) {
	// Delivery never precedes sending, under any latency model draw.
	s := New(LogNormal{Base: 3, Sigma: 1}, rng.New(9))
	var bad int
	s.Trace = func(m Message) {
		if m.At < m.SentAt {
			bad++
		}
	}
	n := &echoNode{reply: true}
	m2 := &echoNode{reply: true}
	s.MaxEvents = 500
	s.Register(1, n)
	s.Register(2, m2)
	s.ScheduleAt(0, 2, func(ctx *Context) { ctx.Send(1, "ping") })
	_, _ = s.Run(0) // ping-pong until MaxEvents; we only check causality
	if bad != 0 {
		t.Fatalf("%d messages delivered before they were sent", bad)
	}
}

// TestRegisterResolvesAndGrowsLinearly pins Register's two halves: dense,
// sparse-high and negative ids all resolve to the handler bound to them,
// and binding ids in order — how the scale engine registers its ~14 000
// cluster actors — grows the dense table geometrically. Regrowing it to
// exactly id+1 per new id copied 3.2 GB for these 20 000 handlers.
func TestRegisterResolvesAndGrowsLinearly(t *testing.T) {
	const n = 20000
	s := New(Fixed(1), rng.New(1))
	nodes := make([]echoNode, n+2)
	ids := make([]NodeID, 0, n+2)
	for i := 0; i < n; i++ {
		ids = append(ids, NodeID(i))
	}
	ids = append(ids, 3*n+7, -5)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, id := range ids[:n] {
		s.Register(id, &nodes[i])
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 2<<20 {
		t.Errorf("%d in-order registrations allocated %d bytes, want under 2 MiB", n, got)
	}
	s.Register(ids[n], &nodes[n])
	s.Register(ids[n+1], &nodes[n+1])

	for _, i := range []int{0, 1, n / 2, n - 1, n, n + 1} {
		s.Inject(ids[i], i)
	}
	s.Inject(2*n, "unbound id inside the grown table")
	if _, err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	for i := range nodes {
		want := 0
		switch i {
		case 0, 1, n / 2, n - 1, n, n + 1:
			want = 1
		}
		if len(nodes[i].got) != want || (want == 1 && nodes[i].got[0] != i) {
			t.Fatalf("handler of id %d received %v, want %d message(s) carrying its index", ids[i], nodes[i].got, want)
		}
	}
	if d := s.Stats().DroppedUnregistered; d != 1 {
		t.Errorf("dropped-unregistered = %d, want 1 (the unbound id)", d)
	}
}
