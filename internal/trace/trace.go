// Package trace records what the engines do, in two forms: causal spans
// (Tracer, span.go), exported as JSON Lines or a Chrome/Perfetto trace and
// walked for each round's critical path, and a bounded flight recorder of
// the simulator's message deliveries (FlightRecorder, flight.go) that a
// chaos sweep dumps when an invariant trips.
package trace

import (
	"fmt"
	"reflect"
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

// RoundCarrier is implemented by message payloads that belong to a protocol
// round; FlightRecorder.Hook uses it to stamp message events with their
// round.
type RoundCarrier interface {
	TraceRound() int
}

// payloadNames caches the dynamic type name of each payload type, so a hook
// costs one map lookup and no allocation per delivery once it has seen the
// type: a simulation delivers a handful of payload types millions of times,
// and fmt.Sprintf("%T") per delivery was the dominant tracing cost at 100k+
// devices. The cache is unsynchronised because the simulator invokes its
// Trace hook from its single-threaded dispatch loop.
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
