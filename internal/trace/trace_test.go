package trace

import (
	"strings"
	"sync"
	"testing"

	"abdhfl/internal/rng"
	"abdhfl/internal/simnet"
)

func TestRecordAndEvents(t *testing.T) {
	f := NewFlightRecorder(4)
	f.Record(Event{Time: 1, Kind: "message", From: 0, To: 1})
	f.Record(Event{Time: 2, Kind: "aggregate", From: 1, To: -1, Round: 3})
	evs := f.Tail()
	if len(evs) != 2 || evs[0].Kind != "message" || evs[1].Round != 3 {
		t.Fatalf("events = %+v", evs)
	}
	// Tail returns a copy.
	evs[0].Kind = "mutated"
	if f.Tail()[0].Kind != "message" {
		t.Fatal("Tail exposed internal storage")
	}
}

func TestWriteJSONL(t *testing.T) {
	f := NewFlightRecorder(4)
	f.Record(Event{Time: 1.5, Kind: "message", From: 2, To: 7, Detail: "msgFlag"})
	var b strings.Builder
	if err := f.WriteTail(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `"kind":"message"`) || !strings.Contains(out, `"detail":"msgFlag"`) {
		t.Fatalf("jsonl = %q", out)
	}
	if strings.Count(out, "\n") != 2 {
		t.Fatal("expected a header line and exactly one event line")
	}
}

func TestConcurrentRecording(t *testing.T) {
	f := NewFlightRecorder(16)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				f.Record(Event{Kind: "c"})
			}
		}()
	}
	wg.Wait()
	if f.Total() != 800 || len(f.Tail()) != 16 {
		t.Fatalf("total = %d, retained = %d", f.Total(), len(f.Tail()))
	}
}

func TestRoundZeroSerialized(t *testing.T) {
	f := NewFlightRecorder(4)
	f.Record(Event{Kind: "message", Round: 0})
	f.Record(Event{Kind: "message", Round: -1})
	var b strings.Builder
	if err := f.WriteTail(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("want a header and two events, got %q", b.String())
	}
	if !strings.Contains(lines[1], `"round":0`) {
		t.Fatalf("round 0 dropped from JSONL: %q", lines[1])
	}
	if !strings.Contains(lines[2], `"round":-1`) {
		t.Fatalf("sentinel round missing: %q", lines[2])
	}
}

type echo struct{}

func (echo) OnMessage(ctx *simnet.Context, msg simnet.Message) {}

func TestSimnetHook(t *testing.T) {
	f := NewFlightRecorder(8)
	s := simnet.New(simnet.Fixed(2), rng.New(1))
	s.Trace = f.Hook()
	s.Register(1, echo{})
	s.Inject(1, "payload")
	if _, err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if f.Total() != 1 {
		t.Fatalf("recorded %d events", f.Total())
	}
	ev := f.Tail()[0]
	if ev.Kind != "message" || ev.To != 1 || ev.Time != 2 || ev.Detail != "string" {
		t.Fatalf("event = %+v", ev)
	}
	if ev.Round != -1 {
		t.Fatalf("payload without a round should record -1, got %d", ev.Round)
	}
}

type roundPayload struct{ round int }

func (p roundPayload) TraceRound() int { return p.round }

func TestSimnetHookRoundCarrier(t *testing.T) {
	f := NewFlightRecorder(8)
	s := simnet.New(simnet.Fixed(1), rng.New(1))
	s.Trace = f.Hook()
	s.Register(1, echo{})
	s.Inject(1, roundPayload{round: 0})
	s.Inject(1, roundPayload{round: 7})
	if _, err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	evs := f.Tail()
	if len(evs) != 2 {
		t.Fatalf("recorded %d events", len(evs))
	}
	if evs[0].Round != 0 || evs[1].Round != 7 {
		t.Fatalf("rounds = %d, %d", evs[0].Round, evs[1].Round)
	}
}

// TestSimnetHookZeroAlloc: after the first delivery of each payload type,
// the flight recorder's hook must not allocate — the type name is cached and
// the ring overwrites in place.
func TestSimnetHookZeroAlloc(t *testing.T) {
	hook := NewFlightRecorder(1).Hook()
	m := simnet.Message{From: 3, To: 4, At: 7, Payload: 42}
	hook(m) // warm the type-name cache
	if allocs := testing.AllocsPerRun(100, func() { hook(m) }); allocs != 0 {
		t.Fatalf("FlightRecorder.Hook allocates %.1f per message in steady state", allocs)
	}
}
