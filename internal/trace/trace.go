// Package trace records structured protocol events (message deliveries,
// aggregations, round completions) and exports them as JSON Lines for
// offline analysis or visualisation. A Recorder can be attached to the
// discrete-event simulator via SimnetHook, or fed manually by engines.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"sort"
	"strings"
	"sync"

	"abdhfl/internal/simnet"
	"abdhfl/internal/telemetry"
)

// Event is one recorded protocol occurrence.
type Event struct {
	// Time is virtual milliseconds on the simulator clock.
	Time float64 `json:"t"`
	// Kind classifies the event ("message", "aggregate", "global", ...).
	Kind string `json:"kind"`
	// From/To identify the nodes involved (-1 when not applicable).
	From int `json:"from"`
	To   int `json:"to"`
	// Round is the global round, -1 when not applicable. Serialised without
	// omitempty: round 0 is a real round and must stay distinguishable from
	// the -1 sentinel in JSONL output.
	Round int `json:"round"`
	// Detail is free-form context (payload type, rule name, ...).
	Detail string `json:"detail,omitempty"`
}

// Recorder accumulates events. It is safe for concurrent use.
type Recorder struct {
	mu     sync.Mutex
	events []Event
	// Cap bounds memory; once reached, new events are dropped and Dropped
	// counts them. Zero means 1 << 20.
	Cap     int
	dropped int
	// DroppedCounter, when set, mirrors every dropped event into a
	// telemetry counter (abdhfl_trace_dropped_total) so silent truncation
	// shows up on dashboards, not just in post-run Dropped() checks.
	DroppedCounter *telemetry.Counter
}

// Record appends an event (or counts it as dropped past the cap).
func (r *Recorder) Record(ev Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	capacity := r.Cap
	if capacity == 0 {
		capacity = 1 << 20
	}
	if len(r.events) >= capacity {
		r.dropped++
		r.DroppedCounter.Inc()
		return
	}
	r.events = append(r.events, ev)
}

// Len returns the number of retained events.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// Dropped returns the number of events discarded past the cap.
func (r *Recorder) Dropped() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Events returns a copy of the retained events.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

// WriteJSONL emits the events as JSON Lines.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, ev := range r.Events() {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return nil
}

// CountByKind returns event counts keyed by Kind. It counts under the lock
// rather than copying the full event slice.
func (r *Recorder) CountByKind() map[string]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[string]int{}
	for i := range r.events {
		out[r.events[i].Kind]++
	}
	return out
}

// Summary renders a one-line-per-kind count report (kinds sorted).
func (r *Recorder) Summary() string {
	counts := r.CountByKind()
	kinds := make([]string, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	var out strings.Builder
	for _, k := range kinds {
		fmt.Fprintf(&out, "%-12s %d\n", k, counts[k])
	}
	if d := r.Dropped(); d > 0 {
		fmt.Fprintf(&out, "(dropped)    %d\n", d)
	}
	return out.String()
}

// RoundCarrier is implemented by message payloads that belong to a protocol
// round; SimnetHook uses it to stamp message events with their round.
type RoundCarrier interface {
	TraceRound() int
}

// SimnetHook adapts a Recorder to the simulator's Trace callback: every
// delivered message becomes a "message" event with the payload's dynamic
// type as detail and, when the payload implements RoundCarrier, its round.
//
// Payload type names are cached per dynamic type so the steady state is one
// map lookup with zero allocations — a simulation delivers a handful of
// payload types millions of times, and fmt.Sprintf("%T") per delivery was
// the dominant tracing cost at 100k+ devices. The cache is closure-local
// and unsynchronised because the simulator invokes Trace from its
// single-threaded dispatch loop.
func SimnetHook(rec *Recorder) func(simnet.Message) {
	names := make(map[reflect.Type]string, 8)
	return func(m simnet.Message) {
		round := -1
		if rc, ok := m.Payload.(RoundCarrier); ok {
			round = rc.TraceRound()
		}
		t := reflect.TypeOf(m.Payload)
		name, ok := names[t]
		if !ok {
			name = fmt.Sprintf("%T", m.Payload)
			names[t] = name
		}
		rec.Record(Event{
			Time:   float64(m.At),
			Kind:   "message",
			From:   int(m.From),
			To:     int(m.To),
			Round:  round,
			Detail: name,
		})
	}
}

// payloadName resolves the cached dynamic type name of a payload.
type payloadNames map[reflect.Type]string

func (p payloadNames) name(payload any) string {
	t := reflect.TypeOf(payload)
	if n, ok := p[t]; ok {
		return n
	}
	n := fmt.Sprintf("%T", payload)
	p[t] = n
	return n
}
