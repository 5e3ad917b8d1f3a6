package transport

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"abdhfl/internal/fault"
	"abdhfl/internal/telemetry"
	"abdhfl/internal/trace"
)

// Endpoint is one node's attachment to the wire. Send enqueues a frame to a
// peer (stamping Seq and Sent); received frames are decoded, dupe-checked
// and dispatched to the Bus by kind. Implementations: the in-process
// Loopback and the socket-backed TCP endpoint.
//
// Who owns the bytes: Send copies. The frame is encoded into a buffer the
// transport owns before Send returns, so the caller's payload is the
// caller's again at once, to overwrite or reuse. A payload received on a
// Queue aliases a buffer drawn from the process's bounded free list, which
// every endpoint in the process shares; it stays valid until the receiver
// hands the frame to Release, which recycles the buffer for a later frame.
// A frame that is never released is simply collected, so holding a payload
// forever is correct, only not free. A frame delivered to several
// subscribers shares one buffer: release it once, after all of them are
// done. The transport itself releases every frame it drops (corrupt,
// duplicate, unrouted).
type Endpoint interface {
	// Self returns this endpoint's node id.
	Self() NodeID
	// Addr returns the listen address peers dial ("" for loopback).
	Addr() string
	// Bus returns the dispatch layer received frames are published to.
	Bus() *Bus
	// Send asynchronously delivers f to the peer, stamping its routing
	// fields. f.Payload is copied before Send returns: see the ownership
	// rule above. Frame fate injection, if configured, applies.
	Send(to NodeID, f *Frame) error
	// Release returns a frame received from this endpoint's bus to the
	// process's free list and clears f's payload. The payload must not be
	// read after, and a frame must be released at most once.
	Release(f *Frame)
	// Stats returns a snapshot of the endpoint's wire counters.
	Stats() StatsSnapshot
	// Close shuts the endpoint down, draining queued outbound frames first
	// (bounded by the configured linger).
	Close() error
}

// Endpoint errors.
var (
	ErrClosed      = errors.New("transport: endpoint closed")
	ErrUnknownPeer = errors.New("transport: unknown peer")
)

// Config carries the knobs shared by both backends.
type Config struct {
	// Self is this endpoint's node id.
	Self NodeID
	// Plan, when non-nil, injects transport faults deterministically per
	// frame: drop, duplicate, and reorder-by-delay decisions are pure
	// functions of (plan seed, kind, from, to, round), so the same plan
	// yields the same fault pattern on every backend and in every process.
	Plan *fault.Plan
	// FaultKinds, when non-empty, restricts fault injection to the listed
	// frame kinds; other kinds always pass untouched. The node engine uses
	// this to fault the quorum-protected uplink (updates, partials) while
	// keeping dissemination reliable, matching the paper's assumption that
	// stragglers are survived by φ-quorums, not by downlink retransmission.
	FaultKinds []uint8
	// Registry, when non-nil, mirrors the wire counters into telemetry
	// under abdhfl_transport_* with a backend label.
	Registry *telemetry.Registry
	// Tracer, when non-nil, receives a hop-level "wire" span for every
	// delivered frame, covering [Sent, received] in wall milliseconds since
	// the endpoint epoch.
	Tracer *trace.Tracer
	// MaxFrame bounds accepted frame sizes (<= 0 selects DefaultMaxFrame).
	MaxFrame int
	// DupeCap is the duplicate-suppression window per generation (<= 0
	// selects DefaultDupeCap).
	DupeCap int
	// QueueCap bounds the frames queued to one TCP peer's writer or to one
	// loopback endpoint's receive loop (<= 0 selects 1024); a Send that would
	// exceed it waits. The queues grow with the frames actually in flight.
	QueueCap int
	// Linger bounds how long Close waits for outbound queues to drain
	// (<= 0 selects 2s).
	Linger time.Duration
}

func (c *Config) maxFrame() int {
	if c.MaxFrame <= 0 {
		return DefaultMaxFrame
	}
	return c.MaxFrame
}

func (c *Config) queueCap() int {
	if c.QueueCap <= 0 {
		return 1024
	}
	return c.QueueCap
}

func (c *Config) linger() time.Duration {
	if c.Linger <= 0 {
		return 2 * time.Second
	}
	return c.Linger
}

// Stats are the endpoint's wire counters. All fields are updated atomically
// and mirrored into telemetry when a registry is configured.
type Stats struct {
	FramesSent      atomic.Int64 // logical sends accepted (before fault copies)
	FramesDelivered atomic.Int64 // frames handed to the bus
	BytesSent       atomic.Int64 // encoded bytes queued to the wire
	BytesRecv       atomic.Int64 // encoded bytes received (pre-dupe-check)
	DupesSuppressed atomic.Int64 // received frames dropped by the dupe map
	FaultDropped    atomic.Int64 // sends suppressed by the fault plan
	FaultDuplicated atomic.Int64 // extra copies injected by the fault plan
	FaultDelayed    atomic.Int64 // sends delayed (reordered) by the fault plan
	DecodeErrors    atomic.Int64 // corrupt or truncated inbound frames
	Reconnects      atomic.Int64 // TCP redials after a broken connection
	DialFailures    atomic.Int64 // TCP dials that failed and were retried
	SendErrors      atomic.Int64 // frames abandoned after delivery failures
}

// StatsSnapshot is a plain-value copy of Stats for reports and conformance
// comparison. Every field is deterministic for a deterministic protocol
// run except Reconnects and DialFailures (wire luck) — the conformance
// tests compare the deterministic subset.
type StatsSnapshot struct {
	FramesSent      int64 `json:"frames_sent"`
	FramesDelivered int64 `json:"frames_delivered"`
	BytesSent       int64 `json:"bytes_sent"`
	BytesRecv       int64 `json:"bytes_recv"`
	DupesSuppressed int64 `json:"dupes_suppressed"`
	FaultDropped    int64 `json:"fault_dropped"`
	FaultDuplicated int64 `json:"fault_duplicated"`
	FaultDelayed    int64 `json:"fault_delayed"`
	DecodeErrors    int64 `json:"decode_errors"`
	Reconnects      int64 `json:"reconnects"`
	DialFailures    int64 `json:"dial_failures"`
	SendErrors      int64 `json:"send_errors"`
}

// Add accumulates o into s (summing per-endpoint snapshots into a cluster
// total).
func (s *StatsSnapshot) Add(o StatsSnapshot) {
	s.FramesSent += o.FramesSent
	s.FramesDelivered += o.FramesDelivered
	s.BytesSent += o.BytesSent
	s.BytesRecv += o.BytesRecv
	s.DupesSuppressed += o.DupesSuppressed
	s.FaultDropped += o.FaultDropped
	s.FaultDuplicated += o.FaultDuplicated
	s.FaultDelayed += o.FaultDelayed
	s.DecodeErrors += o.DecodeErrors
	s.Reconnects += o.Reconnects
	s.DialFailures += o.DialFailures
	s.SendErrors += o.SendErrors
}

// Deterministic returns the snapshot with its wire-luck-dependent fields
// (Reconnects, DialFailures, SendErrors) zeroed — the subset the
// loopback≡TCP golden tests compare on fault-free runs, where every sent
// frame is awaited by the receiving protocol engine and therefore fully
// counted before the run completes.
func (s StatsSnapshot) Deterministic() StatsSnapshot {
	s.Reconnects = 0
	s.DialFailures = 0
	s.SendErrors = 0
	return s
}

// SenderSide returns only the sender-side counters, which are pure
// functions of the protocol run and the fault plan. When a plan injects
// duplicates or reorder delays, the extra copies may still be in flight
// when the protocol finishes — the receive-side tail (FramesDelivered,
// BytesRecv, DupesSuppressed) races endpoint shutdown — so fault-run
// goldens compare this subset plus DecodeErrors (always 0 on a healthy
// wire).
func (s StatsSnapshot) SenderSide() StatsSnapshot {
	return StatsSnapshot{
		FramesSent:      s.FramesSent,
		BytesSent:       s.BytesSent,
		FaultDropped:    s.FaultDropped,
		FaultDuplicated: s.FaultDuplicated,
		FaultDelayed:    s.FaultDelayed,
		DecodeErrors:    s.DecodeErrors,
	}
}

// wireCounters are the telemetry mirrors, resolved once per endpoint. The
// zero value holds nil handles, whose methods are no-ops (telemetry
// counters are nil-receiver safe), so endpoints without a registry pay
// only dead branches.
type wireCounters struct {
	framesSent, framesRecv   *telemetry.Counter
	bytesSent, bytesRecv     *telemetry.Counter
	dupes, dropped, duped    *telemetry.Counter
	delayed, decodeErrs      *telemetry.Counter
	reconnects, dialFailures *telemetry.Counter
}

func newWireCounters(reg *telemetry.Registry, backend string) wireCounters {
	if reg == nil {
		return wireCounters{}
	}
	label := func(name string) string {
		return fmt.Sprintf(`%s{backend=%q}`, name, backend)
	}
	return wireCounters{
		framesSent:   reg.Counter(label("abdhfl_transport_frames_sent_total")),
		framesRecv:   reg.Counter(label("abdhfl_transport_frames_recv_total")),
		bytesSent:    reg.Counter(label("abdhfl_transport_wire_bytes_sent_total")),
		bytesRecv:    reg.Counter(label("abdhfl_transport_wire_bytes_recv_total")),
		dupes:        reg.Counter(label("abdhfl_transport_dupes_suppressed_total")),
		dropped:      reg.Counter(label("abdhfl_transport_fault_dropped_total")),
		duped:        reg.Counter(label("abdhfl_transport_fault_duplicated_total")),
		delayed:      reg.Counter(label("abdhfl_transport_fault_reordered_total")),
		decodeErrs:   reg.Counter(label("abdhfl_transport_decode_errors_total")),
		reconnects:   reg.Counter(label("abdhfl_transport_reconnects_total")),
		dialFailures: reg.Counter(label("abdhfl_transport_dial_failures_total")),
	}
}

// epCore is the backend-shared half of an endpoint: sequence stamping,
// fault fates, the decode→dupe→telemetry/trace→bus receive path, and the
// counters. Backends embed it and implement only the raw byte movement.
type epCore struct {
	self       NodeID
	backend    string
	bus        *Bus
	dupes      *DupeMap
	plan       *fault.Plan
	faultKinds map[uint8]bool // nil: fault every kind
	tracer     *trace.Tracer
	counters   wireCounters
	stats      Stats
	seq        atomic.Uint64
	epoch      time.Time
	maxFrame   int
}

func newEpCore(cfg Config, backend string) *epCore {
	var kinds map[uint8]bool
	if len(cfg.FaultKinds) > 0 {
		kinds = make(map[uint8]bool, len(cfg.FaultKinds))
		for _, k := range cfg.FaultKinds {
			kinds[k] = true
		}
	}
	return &epCore{
		self:       cfg.Self,
		backend:    backend,
		bus:        NewBus(),
		dupes:      NewDupeMap(cfg.DupeCap),
		plan:       cfg.Plan,
		faultKinds: kinds,
		tracer:     cfg.Tracer,
		counters:   newWireCounters(cfg.Registry, backend),
		epoch:      time.Now(),
		maxFrame:   cfg.maxFrame(),
	}
}

// fateLabel keys a frame's deterministic fault fate. Seq is excluded on
// purpose: the label depends only on protocol coordinates, so the same
// logical message draws the same fate in every process and on every
// backend.
func fateLabel(f *Frame) string {
	return fmt.Sprintf("%d:%d>%d@%d", f.Kind, f.From, f.To, f.Round)
}

// prepareSend stamps the frame and draws its fault fate; the backend then
// puts the frame on its wire copies times. copies is 0 when the frame is
// dropped; delay > 0 requests a deferred (reordering) handoff to the wire.
func (c *epCore) prepareSend(to NodeID, f *Frame) (copies int, delay time.Duration) {
	f.From = c.self
	f.To = to
	f.Seq = c.seq.Add(1)
	f.Sent = time.Now().UnixNano()
	copies = 1
	var drop, dup bool
	var delayMS float64
	if c.faultKinds == nil || c.faultKinds[f.Kind] {
		drop, dup, delayMS = c.plan.FrameFate(fateLabel(f))
	}
	if drop {
		c.stats.FaultDropped.Add(1)
		c.counters.dropped.Inc()
		return 0, 0
	}
	if dup {
		copies++
		c.stats.FaultDuplicated.Add(1)
		c.counters.duped.Inc()
	}
	if delayMS > 0 {
		delay = time.Duration(delayMS * float64(time.Millisecond))
		c.stats.FaultDelayed.Add(1)
		c.counters.delayed.Inc()
	}
	wire := int64(EncodedSize(len(f.Payload))) * int64(copies)
	c.stats.FramesSent.Add(1)
	c.stats.BytesSent.Add(wire)
	c.counters.framesSent.Inc()
	c.counters.bytesSent.Add(wire)
	return copies, delay
}

// deliver runs the shared receive path on one frame's wire bytes. buf is
// the frame's own buffer, drawn from framePool or one-off — the delivered
// Payload is a sub-slice of it, not a copy — and passes to the subscriber
// with the frame, or back to the pool when the frame goes nowhere.
func (c *epCore) deliver(buf []byte) {
	c.stats.BytesRecv.Add(int64(len(buf)))
	c.counters.bytesRecv.Add(int64(len(buf)))
	var f Frame
	if err := DecodeFrame(buf, &f, c.maxFrame); err != nil {
		c.stats.DecodeErrors.Add(1)
		c.counters.decodeErrs.Inc()
		framePool.Put(buf)
		return
	}
	if c.dupes.Seen(f.From, f.Seq) {
		c.stats.DupesSuppressed.Add(1)
		c.counters.dupes.Inc()
		framePool.Put(buf)
		return
	}
	now := time.Now()
	if c.tracer != nil {
		start := float64(f.Sent-c.epoch.UnixNano()) / 1e6
		end := float64(now.UnixNano()-c.epoch.UnixNano()) / 1e6
		if start > end {
			start = end
		}
		c.tracer.Record(trace.Span{
			ID:      trace.SpanID("wire", int(f.From), int(f.To), int(f.Round), int(f.Kind)),
			Name:    "wire",
			Start:   start,
			End:     end,
			Round:   int(f.Round),
			Level:   -1,
			Cluster: -1,
			Device:  -1,
			From:    int(f.From),
			To:      int(f.To),
			Bytes:   int64(len(buf)),
			Detail:  c.backend,
		})
	}
	c.stats.FramesDelivered.Add(1)
	c.counters.framesRecv.Inc()
	f.buf = buf
	if !c.bus.Publish(f) {
		framePool.Put(buf)
	}
}

// Release returns a received frame's buffer to the process's free list.
func (c *epCore) Release(f *Frame) {
	framePool.Put(f.buf)
	f.buf, f.Payload = nil, nil
}

// encode writes f's wire bytes into a buffer from framePool.
func encode(f *Frame) []byte {
	return AppendFrame(framePool.Get(EncodedSize(len(f.Payload)))[:0], f)
}

// snapshot copies the counters.
func (c *epCore) snapshot() StatsSnapshot {
	return StatsSnapshot{
		FramesSent:      c.stats.FramesSent.Load(),
		FramesDelivered: c.stats.FramesDelivered.Load(),
		BytesSent:       c.stats.BytesSent.Load(),
		BytesRecv:       c.stats.BytesRecv.Load(),
		DupesSuppressed: c.stats.DupesSuppressed.Load(),
		FaultDropped:    c.stats.FaultDropped.Load(),
		FaultDuplicated: c.stats.FaultDuplicated.Load(),
		FaultDelayed:    c.stats.FaultDelayed.Load(),
		DecodeErrors:    c.stats.DecodeErrors.Load(),
		Reconnects:      c.stats.Reconnects.Load(),
		DialFailures:    c.stats.DialFailures.Load(),
		SendErrors:      c.stats.SendErrors.Load(),
	}
}
