// Flight recorder: a bounded ring buffer of recent trace events, kept cheap
// enough to leave on during chaos sweeps. When an invariant trips, the tail
// answers "what were the last N things the network did" without retaining a
// full trace of a run that was supposed to pass.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"

	"abdhfl/internal/simnet"
)

// DefaultFlightCap is the ring size when NewFlightRecorder is given cap <= 0.
const DefaultFlightCap = 256

// FlightRecorder retains the most recent events in a fixed ring. Safe for
// concurrent use; a nil recorder ignores Record calls and dumps nothing.
type FlightRecorder struct {
	mu    sync.Mutex
	buf   []Event
	next  int
	n     int
	total uint64
}

// NewFlightRecorder returns a recorder holding the last capacity events
// (<=0 means DefaultFlightCap).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightCap
	}
	return &FlightRecorder{buf: make([]Event, capacity)}
}

// Record stores an event, evicting the oldest once the ring is full.
// Nil-safe.
func (f *FlightRecorder) Record(ev Event) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.buf[f.next] = ev
	f.next = (f.next + 1) % len(f.buf)
	if f.n < len(f.buf) {
		f.n++
	}
	f.total++
	f.mu.Unlock()
}

// Total returns how many events were ever recorded (retained or evicted).
// Nil-safe.
func (f *FlightRecorder) Total() uint64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.total
}

// Tail returns the retained events, oldest first. Nil-safe (returns nil).
func (f *FlightRecorder) Tail() []Event {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]Event, 0, f.n)
	start := f.next - f.n
	if start < 0 {
		start += len(f.buf)
	}
	for i := 0; i < f.n; i++ {
		out = append(out, f.buf[(start+i)%len(f.buf)])
	}
	return out
}

// WriteTail dumps the retained events as JSON Lines, oldest first, preceded
// by a header naming how much of the run the tail covers. Nil-safe.
func (f *FlightRecorder) WriteTail(w io.Writer) error {
	tail := f.Tail()
	if _, err := fmt.Fprintf(w, "flight recorder: last %d of %d events\n", len(tail), f.Total()); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	for _, ev := range tail {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return nil
}

// Dump renders the tail as a string (for t.Logf on invariant violations).
// Nil-safe (returns "").
func (f *FlightRecorder) Dump() string {
	if f == nil {
		return ""
	}
	var b strings.Builder
	_ = f.WriteTail(&b)
	return b.String()
}

// Hook adapts the recorder to the simulator's Trace callback: every
// delivered message becomes a "message" event with the payload's cached
// dynamic type name as detail and, when the payload implements
// RoundCarrier, its round (-1 otherwise). Nil-safe (the returned func drops
// everything).
func (f *FlightRecorder) Hook() func(simnet.Message) {
	names := make(payloadNames, 8)
	return func(m simnet.Message) {
		if f == nil {
			return
		}
		round := -1
		if rc, ok := m.Payload.(RoundCarrier); ok {
			round = rc.TraceRound()
		}
		f.Record(Event{
			Time:   float64(m.At),
			Kind:   "message",
			From:   int(m.From),
			To:     int(m.To),
			Round:  round,
			Detail: names.name(m.Payload),
		})
	}
}

// TeeMessageHooks fans one simulator Trace callback out to several hooks,
// skipping nils. Returns nil when no hook remains, so callers can assign
// the result to simnet.Sim.Trace unconditionally.
func TeeMessageHooks(hooks ...func(simnet.Message)) func(simnet.Message) {
	live := hooks[:0:0]
	for _, h := range hooks {
		if h != nil {
			live = append(live, h)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return func(m simnet.Message) {
		for _, h := range live {
			h(m)
		}
	}
}
