// Package simnet is a deterministic discrete-event network simulator: nodes
// are event handlers addressed by integer ids, messages are delivered after
// a per-link latency drawn from a configurable model, and a virtual clock
// advances from event to event. ABD-HFL's partial-synchrony assumption
// (arbitrary, finite, unbounded delivery time) maps onto unbounded latency
// distributions; determinism makes the pipeline timing quantities of the
// paper (σ_w, σ_p, σ_g, ν) exactly reproducible.
//
// Events are totally ordered by (time, schedule sequence) and wait in one
// heap (see queue.go); event structs are pooled and one Context serves every
// callback of a Run, so dispatch stays allocation-free and the engine scales
// to million-device topologies.
package simnet

import (
	"fmt"

	"abdhfl/internal/rng"
)

// Time is virtual simulation time in milliseconds.
type Time float64

// NodeID identifies a simulated node.
type NodeID int

// Message is a payload in flight between two nodes.
type Message struct {
	From, To NodeID
	Payload  any
	// SentAt and At are the send and delivery times.
	SentAt, At Time
}

// Handler is a simulated node: it reacts to delivered messages and timers.
type Handler interface {
	// OnMessage is invoked when a message is delivered to the node.
	OnMessage(ctx *Context, msg Message)
}

// TimerFunc is a scheduled callback.
type TimerFunc func(ctx *Context)

// TimerHandler is a Handler that also takes argument timers: timers that
// carry an integer to the node's own OnTimer instead of a closure of their
// own. A node that arms a timer per unit of work — the last upload of each
// sampled cohort — names the unit in arg and allocates nothing per timer.
type TimerHandler interface {
	Handler
	// OnTimer is invoked when a timer armed with Context.AtArg fires.
	OnTimer(ctx *Context, arg int)
}

// event is a queue entry: a message delivery or a timer. A timer is either a
// closure (timer != nil) or an argument timer (msg.Payload is argTimer{} and
// msg.From holds the argument). The Message is embedded by value — events are
// pooled and a pointer here would force a second allocation per send. msg.At
// is when the event fires and msg.To the node it fires on, for timers as for
// messages. The struct is one cache line (TestEventIsOneCacheLine); an
// argument timer borrows fields a timer leaves unused rather than widen it.
type event struct {
	seq   uint64 // tie-break so simultaneous events fire in schedule order
	msg   Message
	timer TimerFunc
}

// argTimer in an event's msg.Payload marks it an argument timer. The type is
// unexported, so no message can carry one.
type argTimer struct{}

// Stats aggregates traffic counters for communication-cost accounting and
// fault-injection audit: every message lost or multiplied by the fault
// layer is counted, never silently discarded.
type Stats struct {
	Messages int   // messages enqueued for delivery
	Volume   int64 // payload volume in abstract units (see Sim.SendVolume)
	// Dropped counts messages suppressed by the fault model before entering
	// the network.
	Dropped int
	// Duplicated counts the extra copies injected by the fault model.
	Duplicated int
	// DroppedUnregistered counts deliveries — messages and argument timers —
	// to nodes no handler is bound to (crashed or never-started nodes).
	DroppedUnregistered int
	// PeakQueue is the high-water mark of simultaneously pending events —
	// the gauge chaos runs watch to spot queue blow-ups.
	PeakQueue int
}

// Sim is the simulator instance. It is not safe for concurrent use; node
// handlers run sequentially in virtual-time order.
type Sim struct {
	now Time
	seq uint64
	q   eventQueue
	// nodes is a dense registry for the common non-negative ids; negNodes
	// catches the rare negative ids (external actors).
	nodes    []Handler
	negNodes map[NodeID]Handler
	latency  LatencyModel
	sized    SizedLatencyModel // latency, when it is also bandwidth-aware
	rng      *rng.RNG
	frng     *rng.RNG // dedicated stream for fault draws
	stats    Stats
	stopped  bool // Stop was called during the current Run
	// Fault, if non-nil, is consulted for every sent message and may drop,
	// duplicate, or delay it (see FaultModel). Set it before the first Send.
	Fault FaultModel
	// Trace, if non-nil, receives every delivered message.
	Trace func(msg Message)
	// MaxEvents guards against runaway protocols; zero means 10 million.
	MaxEvents int
}

// New returns a simulator using the given latency model and random stream.
func New(latency LatencyModel, r *rng.RNG) *Sim {
	if latency == nil {
		latency = Fixed(1)
	}
	if r == nil {
		r = rng.New(0)
	}
	sized, _ := latency.(SizedLatencyModel)
	return &Sim{
		latency: latency,
		sized:   sized,
		rng:     r,
		frng:    r.Derive("fault"),
	}
}

// NewSharded is New; the queue is no longer sharded and both counts are
// ignored.
//
// Deprecated: kept only because benchmark/replay.go calls it and a PR that
// claims a gain may not edit benchmark/. The [benchmark] re-cut (ROADMAP
// item 1) deletes it.
func NewSharded(latency LatencyModel, r *rng.RNG, shards, workers int) *Sim {
	return New(latency, r)
}

// Register binds a handler to a node id, replacing any previous binding.
func (s *Sim) Register(id NodeID, h Handler) {
	if id < 0 {
		if s.negNodes == nil {
			s.negNodes = make(map[NodeID]Handler)
		}
		s.negNodes[id] = h
		return
	}
	if n := int(id) + 1; n > len(s.nodes) {
		// append grows the backing array geometrically, so registering ids
		// in order is linear overall rather than one full copy per id;
		// registering the highest id first sizes the table once.
		s.nodes = append(s.nodes, make([]Handler, n-len(s.nodes))...)
	}
	s.nodes[id] = h
}

// handlerFor returns the handler bound to id, or nil.
func (s *Sim) handlerFor(id NodeID) Handler {
	if id < 0 {
		return s.negNodes[id]
	}
	if int(id) >= len(s.nodes) {
		return nil
	}
	return s.nodes[id]
}

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// Stats returns the traffic counters accumulated so far.
func (s *Sim) Stats() Stats {
	st := s.stats
	st.PeakQueue = s.q.peak
	return st
}

// Context is the API a handler uses to interact with the simulator during an
// event callback. It is valid only until that callback returns: Run reuses
// one Context for every event it dispatches, so a callback must not retain
// its Context (a timer closure takes its own as an argument).
type Context struct {
	sim  *Sim
	self NodeID
}

// Self returns the node id the current callback belongs to.
func (c *Context) Self() NodeID { return c.self }

// Now returns the current virtual time.
func (c *Context) Now() Time { return c.sim.now }

// Send enqueues a message to the given node with latency drawn from the
// simulator's model. Volume 1 is recorded; use SendVolume for model-sized
// payloads.
func (c *Context) Send(to NodeID, payload any) { c.SendVolume(to, payload, 1) }

// SendVolume is Send with an explicit payload volume (e.g. the parameter
// count of a model) for communication-cost accounting.
func (c *Context) SendVolume(to NodeID, payload any, volume int64) {
	c.sim.send(c.self, to, payload, volume)
}

// After schedules fn on this node after the given virtual delay.
func (c *Context) After(d Time, fn TimerFunc) {
	if d < 0 {
		panic("simnet: negative timer delay")
	}
	s := c.sim
	s.scheduleTimer(s.now+d, c.self, fn)
}

// AtArg schedules an argument timer on this node at absolute virtual time at
// (>= now): the node's handler, which must be a TimerHandler (Run panics on
// one that is not), gets OnTimer(arg). It orders with closure timers and
// messages like any other event, by time and then by when it was scheduled.
func (c *Context) AtArg(at Time, arg int) { c.sim.AtArg(c.self, at, arg) }

func (s *Sim) send(from, to NodeID, payload any, volume int64) {
	copies := 1
	extra := 0.0
	if s.Fault != nil {
		f := s.Fault.Fate(s.frng, from, to, s.now)
		if f.Drop {
			s.stats.Dropped++
			return
		}
		if f.Duplicates > 0 {
			copies += f.Duplicates
			s.stats.Duplicated += f.Duplicates
		}
		if f.ExtraDelay > 0 {
			extra = f.ExtraDelay
		}
	}
	for c := 0; c < copies; c++ {
		d := s.latency.Delay(s.rng, from, to) + extra
		if d < 0 {
			d = 0
		}
		// The size term is deterministic (no rng), so payload sizes never
		// perturb the random latency/fault streams drawn above.
		if s.sized != nil {
			d += s.sized.SizeDelay(volume, from, to)
		}
		at := s.now + Time(d)
		s.stats.Messages++
		s.stats.Volume += volume
		e := s.q.get()
		e.msg = Message{From: from, To: to, Payload: payload, SentAt: s.now, At: at}
		s.schedule(e)
	}
}

func (s *Sim) schedule(e *event) {
	e.seq = s.seq
	s.seq++
	s.q.push(e)
}

func (s *Sim) scheduleTimer(at Time, id NodeID, fn TimerFunc) {
	e := s.q.get()
	e.msg.To, e.msg.At = id, at
	e.timer = fn
	s.schedule(e)
}

// Inject delivers a payload to a node from the outside world (NodeID -1) at
// the current time plus the link latency; used to bootstrap protocols.
func (s *Sim) Inject(to NodeID, payload any) {
	s.send(-1, to, payload, 1)
}

// ScheduleAt runs fn for node id at absolute virtual time at (>= now).
func (s *Sim) ScheduleAt(at Time, id NodeID, fn TimerFunc) {
	if at < s.now {
		panic("simnet: ScheduleAt in the past")
	}
	s.scheduleTimer(at, id, fn)
}

// AtArg arms an argument timer on node id at absolute virtual time at
// (>= now): Context.AtArg for use before Run, the argument-timer twin of
// ScheduleAt.
func (s *Sim) AtArg(id NodeID, at Time, arg int) {
	if at < s.now {
		panic("simnet: AtArg in the past")
	}
	e := s.q.get()
	e.msg = Message{From: NodeID(arg), To: id, Payload: argTimer{}, At: at}
	s.schedule(e)
}

// Run processes events until the queue is empty or until virtual time
// exceeds until (0 = no limit). It returns the number of events processed
// and an error if MaxEvents is exceeded.
func (s *Sim) Run(until Time) (int, error) {
	maxEvents := s.MaxEvents
	if maxEvents == 0 {
		maxEvents = 10_000_000
	}
	processed := 0
	ctx := &Context{sim: s}
	for !s.stopped {
		e := s.q.pop()
		if e == nil {
			break
		}
		if until > 0 && e.msg.At > until {
			// Push back (seq preserved) so a later Run can resume from here.
			s.q.push(e)
			s.now = until
			return processed, nil
		}
		s.now = e.msg.At
		ctx.self = e.msg.To
		processed++
		if processed > maxEvents {
			s.q.put(e)
			return processed, fmt.Errorf("simnet: exceeded %d events (livelock?)", maxEvents)
		}
		if e.timer != nil {
			fn := e.timer
			s.q.put(e)
			fn(ctx)
			continue
		}
		h := s.handlerFor(e.msg.To)
		if _, ok := e.msg.Payload.(argTimer); ok && h != nil {
			// The timer's other form: the argument goes to the node's own
			// handler. (A node that lost its handler after arming the timer
			// loses the timer too, counted below like a message to it.)
			arg := int(e.msg.From)
			s.q.put(e)
			h.(TimerHandler).OnTimer(ctx, arg)
			continue
		}
		if h == nil {
			// Delivery to an unregistered (crashed / never-started) node: it
			// is lost, and — unlike the seed's bare continue — the loss is
			// counted so runners can surface it in their summaries.
			s.stats.DroppedUnregistered++
			s.q.put(e)
			continue
		}
		msg := e.msg
		s.q.put(e)
		if s.Trace != nil {
			s.Trace(msg)
		}
		h.OnMessage(ctx, msg)
	}
	s.stopped = false
	return processed, nil
}

// Stop makes Run return once the current callback returns; the events still
// queued stay queued for a later Run.
func (s *Sim) Stop() { s.stopped = true }

// Reset returns the simulator to time zero for another run: pending events
// are discarded (their structs go back to the queue's free list), and the
// clock, the schedule counter, the traffic counters and a pending Stop are
// cleared. Handlers, the latency and fault models, settings and the random
// streams (which are not rewound) are kept.
func (s *Sim) Reset() {
	s.q.drain()
	s.now, s.seq, s.stats, s.stopped = 0, 0, Stats{}, false
}

// Reserve sizes the event queue for n simultaneously pending events, so a
// run that knows its bound allocates the queue once instead of growing into
// it. It is a hint: a run that exceeds it grows as if it had not been given.
func (s *Sim) Reserve(n int) { s.q.reserve(n) }

// Pending reports whether undelivered events remain.
func (s *Sim) Pending() bool { return !s.q.empty() }
