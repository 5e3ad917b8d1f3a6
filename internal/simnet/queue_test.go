package simnet

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"abdhfl/internal/rng"
)

type handlerFunc func(ctx *Context, msg Message)

func (f handlerFunc) OnMessage(ctx *Context, msg Message) { f(ctx, msg) }

// scheduled is one event as the order property's model sees it: when it
// fires, on which node, and its position in schedule order (its index in the
// script's list, which is the simulator's seq).
type scheduled struct {
	at   Time
	node NodeID
}

// orderScript drives a random schedule of sends, closure timers, argument
// timers and ScheduleAt calls through a simulator and keeps the model the
// property is checked against.
// Latency is Fixed(1) and every delay a small integer, so most events share
// their time with many others and the seq tie-break decides the order.
type orderScript struct {
	t      *testing.T
	sim    *Sim
	r      *rng.RNG
	nodes  int
	budget int // events still to schedule

	events        []scheduled // in schedule order
	dispatched    []int       // event ids in dispatch order
	pending, peak int
}

func (s *orderScript) note(at Time, node NodeID) int {
	s.events = append(s.events, scheduled{at: at, node: node})
	s.budget--
	s.pending++
	if s.pending > s.peak {
		s.peak = s.pending
	}
	return len(s.events) - 1
}

// fire is every event's callback: it checks the callback runs as the node the
// event was scheduled for, then schedules up to three more events.
func (s *orderScript) fire(ctx *Context, id int) {
	s.dispatched = append(s.dispatched, id)
	s.pending--
	want := s.events[id]
	if ctx.Self() != want.node || ctx.Now() != want.at {
		s.t.Fatalf("event %d ran as node %d at %v, scheduled for node %d at %v",
			id, ctx.Self(), ctx.Now(), want.node, want.at)
	}
	for k := s.r.Intn(4); k > 0 && s.budget > 0; k-- {
		s.spawn(ctx)
	}
	if ctx.Self() != want.node {
		s.t.Fatalf("event %d: Self() changed to %d while scheduling", id, ctx.Self())
	}
}

// scriptNode is every node of the script: messages carry an event id as
// their payload, argument timers as their argument.
type scriptNode struct{ s *orderScript }

func (n scriptNode) OnMessage(ctx *Context, msg Message) { n.s.fire(ctx, msg.Payload.(int)) }
func (n scriptNode) OnTimer(ctx *Context, id int)        { n.s.fire(ctx, id) }

func (s *orderScript) spawn(ctx *Context) {
	other := NodeID(s.r.Intn(s.nodes))
	switch s.r.Intn(4) {
	case 0:
		ctx.Send(other, s.note(ctx.Now()+1, other))
	case 1:
		d := Time(s.r.Intn(3))
		id := s.note(ctx.Now()+d, ctx.Self())
		ctx.After(d, func(ctx *Context) { s.fire(ctx, id) })
	case 2:
		at := ctx.Now() + Time(s.r.Intn(3))
		ctx.AtArg(at, s.note(at, ctx.Self()))
	default:
		// A timer armed from this node's callback for another node.
		at := ctx.Now() + Time(s.r.Intn(3))
		id := s.note(at, other)
		s.sim.ScheduleAt(at, other, func(ctx *Context) { s.fire(ctx, id) })
	}
}

// runOrderScript runs one seeded schedule on a queue reserved for reserve
// pending events (0: none), pausing at each of the given times, and returns
// the script for inspection.
func runOrderScript(t *testing.T, seed uint64, reserve int, pauses []Time) *orderScript {
	t.Helper()
	s := &orderScript{t: t, sim: New(Fixed(1), rng.New(seed)), r: rng.New(seed).Derive("script"), nodes: 8, budget: 3000}
	s.sim.Reserve(reserve)
	for i := 0; i < s.nodes; i++ {
		s.sim.Register(NodeID(i), scriptNode{s})
	}
	for i := 0; i < 40; i++ {
		node := NodeID(s.r.Intn(s.nodes))
		if i%2 == 0 {
			s.sim.Inject(node, s.note(1, node))
			continue
		}
		at := Time(s.r.Intn(4))
		id := s.note(at, node)
		s.sim.ScheduleAt(at, node, func(ctx *Context) { s.fire(ctx, id) })
	}
	for _, until := range append(pauses, 0) {
		if _, err := s.sim.Run(until); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestDispatchOrderIsStableSort is the queue's contract as a property: events
// — messages, closure timers and argument timers alike — fire in exactly the
// order a stable sort of the schedule by time gives, that is by (at, seq);
// pausing with Run(until) and resuming changes neither the order nor the
// PeakQueue gauge; nor does reserving the queue, whether the run stays inside
// its reserve or outgrows it; and every callback, nested or not, runs with
// Self() the node its event was scheduled for.
func TestDispatchOrderIsStableSort(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		s := runOrderScript(t, seed, 0, nil)
		if s.budget != 0 || len(s.dispatched) != len(s.events) {
			t.Fatalf("seed %d: scheduled %d events, dispatched %d, budget left %d",
				seed, len(s.events), len(s.dispatched), s.budget)
		}
		want := make([]int, len(s.events))
		for i := range want {
			want[i] = i
		}
		sort.SliceStable(want, func(i, j int) bool { return s.events[want[i]].at < s.events[want[j]].at })
		for i := range want {
			if s.dispatched[i] != want[i] {
				t.Fatalf("seed %d: dispatch %d was event %d (at %v), stable sort on (at, seq) gives event %d (at %v)",
					seed, i, s.dispatched[i], s.events[s.dispatched[i]].at, want[i], s.events[want[i]].at)
			}
		}
		if got := s.sim.Stats().PeakQueue; got != s.peak {
			t.Fatalf("seed %d: PeakQueue %d, model says %d", seed, got, s.peak)
		}

		// Pauses land before, on and between event times; a paused event is
		// pushed back with its seq.
		p := runOrderScript(t, seed, 0, []Time{0.5, 2, 2.5, 3, 7})
		if fmt.Sprint(p.dispatched) != fmt.Sprint(s.dispatched) {
			t.Fatalf("seed %d: pausing and resuming changed the dispatch order", seed)
		}
		if got := p.sim.Stats().PeakQueue; got != s.peak {
			t.Fatalf("seed %d: PeakQueue %d after pauses, %d without", seed, got, s.peak)
		}

		// A reserve the run outgrows many times over, and one it never fills.
		if s.peak <= 4*growMin {
			t.Fatalf("seed %d: peak %d does not outgrow the small reserve", seed, s.peak)
		}
		for _, reserve := range []int{3, 2 * s.peak} {
			r := runOrderScript(t, seed, reserve, nil)
			if fmt.Sprint(r.dispatched) != fmt.Sprint(s.dispatched) {
				t.Fatalf("seed %d: reserving %d events changed the dispatch order", seed, reserve)
			}
			if got := r.sim.Stats().PeakQueue; got != s.peak {
				t.Fatalf("seed %d: PeakQueue %d with %d reserved, %d without", seed, got, reserve, s.peak)
			}
			if events := len(r.sim.q.free) + len(r.sim.q.slab); reserve > s.peak && (cap(r.sim.q.heap) != reserve || events != reserve) {
				t.Fatalf("seed %d: a run inside its reserve of %d ended with %d slots, %d events",
					seed, reserve, cap(r.sim.q.heap), events)
			}
		}
	}
}

// TestEqualTimeTimersAndMessagesFireInScheduleOrder spells the property out
// on one node: a message, a closure timer and an argument timer due at the
// same instant fire in the order they were scheduled, whichever order that is.
func TestEqualTimeTimersAndMessagesFireInScheduleOrder(t *testing.T) {
	kinds := []string{"message", "closure", "argument"}
	for _, order := range [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		sim := New(Fixed(1), rng.New(1))
		var got []string
		node := recordingNode{got: &got}
		sim.Register(0, node)
		sim.ScheduleAt(0, 0, func(ctx *Context) {
			for _, k := range order {
				switch kinds[k] {
				case "message":
					ctx.Send(0, "message") // Fixed(1): due at 1
				case "closure":
					ctx.After(1, func(*Context) { got = append(got, "closure") })
				default:
					ctx.AtArg(ctx.Now()+1, 7)
				}
			}
		})
		if _, err := sim.Run(0); err != nil {
			t.Fatal(err)
		}
		var want []string
		for _, k := range order {
			want = append(want, kinds[k])
		}
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Fatalf("scheduled %v, fired %v", want, got)
		}
	}
}

type recordingNode struct{ got *[]string }

func (n recordingNode) OnMessage(_ *Context, msg Message) {
	*n.got = append(*n.got, msg.Payload.(string))
}

func (n recordingNode) OnTimer(_ *Context, arg int) {
	if arg != 7 {
		panic("argument timer lost its argument")
	}
	*n.got = append(*n.got, "argument")
}

// TestArgumentTimerNeedsItsHandler: an argument timer whose node has lost its
// handler by the time it fires is lost with it and counted, like a message to
// a node that is gone; one armed on a node whose handler cannot take it is a
// programming error and panics the run.
func TestArgumentTimerNeedsItsHandler(t *testing.T) {
	sim := New(Fixed(1), rng.New(1))
	var got []string
	sim.Register(0, recordingNode{got: &got})
	sim.ScheduleAt(0, 0, func(ctx *Context) {
		ctx.AtArg(ctx.Now()+1, 7)
		ctx.AtArg(ctx.Now()+3, 7)
	})
	sim.ScheduleAt(2, 0, func(ctx *Context) { sim.Register(0, nil) })
	if _, err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if strings.Join(got, " ") != "argument" {
		t.Fatalf("fired %v, want the one timer due before the handler went", got)
	}
	if st := sim.Stats(); st.DroppedUnregistered != 1 {
		t.Fatalf("DroppedUnregistered = %d, want the one orphaned timer", st.DroppedUnregistered)
	}

	sim.Register(1, handlerFunc(func(ctx *Context, msg Message) { ctx.AtArg(ctx.Now()+1, 7) }))
	sim.Inject(1, nil)
	defer func() {
		if recover() == nil {
			t.Error("an argument timer fired on a plain Handler without a panic")
		}
	}()
	sim.Run(0)
}

// TestAtArgNotInThePast: an argument timer may be armed for the current
// instant, and fires; one armed before it panics, as ScheduleAt does.
func TestAtArgNotInThePast(t *testing.T) {
	sim := New(Fixed(1), rng.New(1))
	var got []string
	sim.Register(0, recordingNode{got: &got})
	sim.ScheduleAt(2, 0, func(ctx *Context) {
		ctx.AtArg(ctx.Now(), 7)
		defer func() {
			if recover() == nil {
				t.Error("AtArg before the current time did not panic")
			}
		}()
		ctx.AtArg(ctx.Now()-0.5, 7)
	})
	if _, err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if strings.Join(got, " ") != "argument" {
		t.Fatalf("fired %v, want the one timer armed for the current instant", got)
	}
}

// TestSimAtArg: an argument timer armed from outside a callback fires with
// its argument on the node it names; it orders by (at, seq) among argument
// timers armed with Context.AtArg and closure timers armed with ScheduleAt;
// arming one in the past panics; and one for a node without a handler is
// counted as dropped.
func TestSimAtArg(t *testing.T) {
	sim := New(Fixed(1), rng.New(1))
	var got []string
	sim.Register(0, recordingNode{got: &got})
	closure := func(name string) TimerFunc {
		return func(*Context) { got = append(got, name) }
	}
	sim.AtArg(0, 2, 7)                        // seq 0, due at 2
	sim.ScheduleAt(1, 0, func(ctx *Context) { // seq 1, due at 1
		ctx.AtArg(2, 7)                               // seq 5, due at 2
		sim.ScheduleAt(2, 0, closure("closure-late")) // seq 6, due at 2
	})
	sim.ScheduleAt(2, 0, closure("closure")) // seq 2, due at 2
	sim.AtArg(0, 1, 7)                       // seq 3, due at 1: after seq 1
	sim.AtArg(5, 3, 7)                       // seq 4: node 5 has no handler
	if _, err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	want := "argument argument closure argument closure-late"
	if strings.Join(got, " ") != want {
		t.Fatalf("fired %v, want %s", got, want)
	}
	if st := sim.Stats(); st.DroppedUnregistered != 1 {
		t.Fatalf("DroppedUnregistered = %d, want the one timer for node 5", st.DroppedUnregistered)
	}
	defer func() {
		if recover() == nil {
			t.Error("Sim.AtArg before the current time did not panic")
		}
	}()
	sim.AtArg(0, sim.Now()-0.5, 7)
}

// TestEventIsOneCacheLine pins the event struct at 64 bytes: the queue holds
// tens of thousands of them, and an argument timer was fitted into fields a
// timer leaves unused so that it would stay there.
func TestEventIsOneCacheLine(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 64 {
		t.Fatalf("event is %d bytes, want 64", got)
	}
}

// TestContextSelfFollowsEvent spells out what the one reused Context must
// get right: a timer that node 1's handler arms for node 2 runs as node 2,
// an After from inside that timer runs as node 2 again, and node 1's own
// After still runs as node 1.
func TestContextSelfFollowsEvent(t *testing.T) {
	sim := New(Fixed(1), rng.New(1))
	var got []string
	mark := func(what string) TimerFunc {
		return func(ctx *Context) { got = append(got, fmt.Sprintf("%s@%d", what, ctx.Self())) }
	}
	sim.Register(1, handlerFunc(func(ctx *Context, msg Message) {
		sim.ScheduleAt(ctx.Now()+1, 2, func(ctx *Context) {
			mark("for-2")(ctx)
			ctx.After(1, mark("nested"))
		})
		ctx.After(1, mark("own"))
		mark("handler")(ctx)
	}))
	sim.Inject(1, nil)
	if _, err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if want := "handler@1 for-2@2 own@1 nested@2"; strings.Join(got, " ") != want {
		t.Fatalf("callbacks ran as %q, want %q", strings.Join(got, " "), want)
	}
}

// chatterNode bounces messages around a ring and records every delivery, so
// a full run produces a complete causal trace of the simulation.
type chatterNode struct {
	id    NodeID
	peers int
	hops  int
	trace *strings.Builder
}

func (n *chatterNode) OnMessage(ctx *Context, msg Message) {
	fmt.Fprintf(n.trace, "t=%.6f %d->%d hop=%v\n", float64(msg.At), msg.From, msg.To, msg.Payload)
	hop := msg.Payload.(int)
	if hop >= n.hops {
		return
	}
	// Fan out to two peers plus a timer, to mix message and timer events.
	ctx.Send(NodeID((int(n.id)+1)%n.peers), hop+1)
	ctx.Send(NodeID((int(n.id)+7)%n.peers), hop+1)
	ctx.After(Time(0.5), func(ctx *Context) {
		fmt.Fprintf(n.trace, "t=%.6f timer@%d\n", float64(ctx.Now()), ctx.Self())
	})
}

// TestSeededRerunIdentical pins rerun determinism under random latencies:
// the same seed twice in a row must give a byte-identical delivery trace and
// identical stats.
func TestSeededRerunIdentical(t *testing.T) {
	run := func() (string, Stats) {
		var trace strings.Builder
		sim := New(Uniform{Min: 0.5, Max: 5}, rng.New(42))
		const peers = 64
		for i := 0; i < peers; i++ {
			sim.Register(NodeID(i), &chatterNode{id: NodeID(i), peers: peers, hops: 6, trace: &trace})
		}
		for i := 0; i < peers; i += 3 {
			sim.Inject(NodeID(i), 0)
		}
		if _, err := sim.Run(0); err != nil {
			t.Fatalf("run: %v", err)
		}
		return trace.String(), sim.Stats()
	}
	a, aStats := run()
	b, bStats := run()
	if a == "" {
		t.Fatal("empty trace")
	}
	if a != b || aStats != bStats {
		t.Fatalf("seeded rerun diverged (stats %+v vs %+v)", aStats, bStats)
	}
}

// TestPeakQueueGauge checks the queue high-water mark: scheduling n timers
// before running reports a peak of n at once, and draining them does not
// raise it.
func TestPeakQueueGauge(t *testing.T) {
	sim := New(Fixed(1), rng.New(7))
	sim.Register(0, handlerFunc(func(ctx *Context, msg Message) {}))
	const n = 1000
	for i := 0; i < n; i++ {
		sim.ScheduleAt(Time(i), 0, func(ctx *Context) {})
	}
	if got := sim.Stats().PeakQueue; got != n {
		t.Fatalf("PeakQueue=%d before the run, want %d", got, n)
	}
	if _, err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := sim.Stats().PeakQueue; got != n {
		t.Fatalf("PeakQueue=%d after the run, want %d", got, n)
	}
}

// TestEventPoolReuse verifies the freelist actually recycles events: after a
// burst drains, a second burst of the same size must not grow the pool's
// total footprint (allocations amortize to zero in steady state). Nothing a
// drained queue still holds — pooled events, or heap slots past the end — may
// keep a payload or a timer closure alive.
func TestEventPoolReuse(t *testing.T) {
	sim := New(Fixed(1), rng.New(1))
	sim.Register(0, handlerFunc(func(ctx *Context, msg Message) {}))
	burst := func() {
		for i := 0; i < 500; i++ {
			sim.Inject(0, &i)
			sim.ScheduleAt(sim.Now()+Time(i%7), 0, func(ctx *Context) { _ = i })
		}
		if _, err := sim.Run(0); err != nil {
			t.Fatal(err)
		}
	}
	burst()
	free := len(sim.q.free)
	if free == 0 {
		t.Fatal("freelist empty after drain; events not recycled")
	}
	burst()
	if got := len(sim.q.free); got != free {
		t.Fatalf("freelist grew across equal bursts: %d -> %d (pool not reused)", free, got)
	}
	for i, e := range sim.q.free {
		if e.timer != nil || e.msg != (Message{}) || e.seq != 0 {
			t.Fatalf("pooled event %d not cleared: %+v", i, *e)
		}
	}
	for i, s := range sim.q.heap[:cap(sim.q.heap)] {
		if s.e != nil {
			t.Fatalf("drained heap slot %d still points at an event", i)
		}
	}
}

// BenchmarkQueueDeep measures dispatch with tens of thousands of events
// pending at once — the depth a 100k-device scale cell holds the queue at,
// where sift cost rather than handler work sets the pace. Each dispatched
// event schedules its successor, so the depth stays constant.
func BenchmarkQueueDeep(b *testing.B) {
	const depth = 50_000
	sim := New(Fixed(1), rng.New(1))
	sim.MaxEvents = 1 << 62
	r := rng.New(2)
	left := 0
	var step TimerFunc
	step = func(ctx *Context) {
		if left > 0 {
			left--
			ctx.After(Time(40+160*r.Float64()), step)
		}
	}
	for i := 0; i < depth; i++ {
		sim.ScheduleAt(Time(200*r.Float64()), NodeID(i%1024), step)
	}
	b.ReportAllocs()
	b.ResetTimer()
	left = b.N
	if _, err := sim.Run(0); err != nil {
		b.Fatal(err)
	}
}
