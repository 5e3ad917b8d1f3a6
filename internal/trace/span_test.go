package trace

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"abdhfl/internal/simnet"
	"abdhfl/internal/telemetry"
)

func TestSpanIDDeterministicAndNonZero(t *testing.T) {
	a := SpanID("train", 3, 17)
	if a != SpanID("train", 3, 17) {
		t.Fatal("same coordinates hashed differently")
	}
	for _, other := range []uint64{
		SpanID("train", 3, 18),
		SpanID("train", 17, 3),
		SpanID("aggregate", 3, 17),
		SpanID("train", -1, 17),
	} {
		if other == a {
			t.Fatalf("distinct coordinates collided on %d", a)
		}
		if other == 0 {
			t.Fatal("SpanID returned the reserved zero")
		}
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	tr.Record(Span{Name: "x"})
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Spans() != nil {
		t.Fatal("nil tracer not inert")
	}
	var b strings.Builder
	if err := tr.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "traceEvents") {
		t.Fatal("nil tracer chrome export not a valid empty trace")
	}
}

func TestTracerCapDropsAndCounter(t *testing.T) {
	reg := telemetry.New()
	tr := NewTracer(4, 3)
	tr.DroppedCounter = reg.Counter("abdhfl_trace_dropped_total")
	for i := 0; i < 10; i++ {
		tr.Record(Span{Name: "x", Start: float64(i)})
	}
	if tr.Len() != 3 {
		t.Fatalf("len = %d, want 3", tr.Len())
	}
	if tr.Dropped() != 7 {
		t.Fatalf("dropped = %d, want 7", tr.Dropped())
	}
	if got := reg.Counter("abdhfl_trace_dropped_total").Value(); got != 7 {
		t.Fatalf("telemetry counter = %d, want 7", got)
	}
	if w := DroppedWarning("span tracer", tr.Dropped()); !strings.Contains(w, "dropped 7 events") {
		t.Fatalf("warning = %q", w)
	}
	if DroppedWarning("span tracer", 0) != "" {
		t.Fatal("warning emitted with zero drops")
	}
}

// sampleSpans is a mixed batch with deliberate Start ties, forward parent
// references, and every field class in play.
func sampleSpans() []Span {
	return []Span{
		{ID: SpanID("round", 0), Name: "round", Start: 0, End: 9, Round: 0, Level: -1, Cluster: -1, Device: -1, From: -1, To: -1, Seq: 7},
		{ID: SpanID("global", 0), Parent: SpanID("round", 0), Name: "global", Start: 5, End: 9, Round: 0, Level: 0, Cluster: 0, Device: -1, From: -1, To: -1, Rule: "bra:median", Kept: 3, Filtered: 1, Seq: 6},
		{ID: SpanID("train", 0, 2), Parent: SpanID("umsg", 0, 2), Name: "train", Start: 0, End: 3, Round: 0, Level: 2, Cluster: 0, Device: 2, From: -1, To: -1, Seq: 1},
		{ID: SpanID("train", 0, 5), Parent: SpanID("umsg", 0, 5), Name: "train", Start: 0, End: 4, Round: 0, Level: 2, Cluster: 1, Device: 5, From: -1, To: -1, Seq: 2},
		{ID: SpanID("umsg", 0, 2), Parent: SpanID("aggregate", 0, 2, 0), Name: "msg", Start: 3, End: 4, Round: 0, Level: 2, Cluster: 0, Device: 2, From: 2, To: 64, Bytes: 128, Detail: "uplink", Seq: 3},
		{ID: SpanID("aggregate", 0, 2, 0), Parent: SpanID("pmsg", 0, 2, 0), Name: "aggregate", Start: 4, End: 5, Round: 0, Level: 2, Cluster: 0, Device: -1, From: -1, To: -1, Rule: "bra:multi-krum", Kept: 2, Filtered: 1, Seq: 4},
		{ID: SpanID("pmsg", 0, 2, 0), Parent: SpanID("global", 0), Name: "msg", Start: 5, End: 6, Round: 0, Level: 2, Cluster: 0, Device: -1, From: 64, To: 80, Bytes: 128, Detail: "partial", Seq: 5},
	}
}

// TestShardMergeDeterminism pins the tentpole's core promise: the exported
// stream is byte-identical for every shard count and every recording
// interleaving.
func TestShardMergeDeterminism(t *testing.T) {
	spans := sampleSpans()
	var want string
	for _, shards := range []int{1, 2, 8, 64} {
		tr := NewTracer(shards, 0)
		// Record in a shard-dependent order to prove order doesn't matter.
		for i := range spans {
			tr.Record(spans[(i*5+shards)%len(spans)])
		}
		var b strings.Builder
		if err := tr.WriteJSONL(&b); err != nil {
			t.Fatal(err)
		}
		var c strings.Builder
		if err := tr.WriteChromeTrace(&c); err != nil {
			t.Fatal(err)
		}
		got := b.String() + "\x00" + c.String()
		if want == "" {
			want = got
		} else if got != want {
			t.Fatalf("shards=%d produced a different byte stream", shards)
		}
	}
}

// TestConcurrentSpanRecording hammers one tracer from many goroutines; run
// under -race via make race. Explicit Seq keeps the merged order
// deterministic even though arrival order is not.
func TestConcurrentSpanRecording(t *testing.T) {
	tr := NewTracer(8, 0)
	const workers, per = 16, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tr.Record(Span{
					ID:    SpanID("train", i, w),
					Name:  "train",
					Start: float64(i),
					Seq:   uint64(w*per + i + 1),
				})
			}
		}()
	}
	wg.Wait()
	if tr.Len() != workers*per {
		t.Fatalf("len = %d, want %d", tr.Len(), workers*per)
	}
	spans := tr.Spans()
	for i := 1; i < len(spans); i++ {
		if !spanLess(&spans[i-1], &spans[i]) {
			t.Fatalf("merged order violated at %d", i)
		}
	}
}

func TestChromeTraceSchema(t *testing.T) {
	tr := NewTracer(2, 0)
	for _, s := range sampleSpans() {
		tr.Record(s)
	}
	var b strings.Builder
	if err := tr.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("chrome export not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) != len(sampleSpans()) {
		t.Fatalf("%d events for %d spans", len(doc.TraceEvents), len(sampleSpans()))
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			t.Fatalf("event ph = %q, want X", ev.Ph)
		}
		if ev.Dur < 0 {
			t.Fatalf("negative duration %v", ev.Dur)
		}
		if _, ok := ev.Args["id"]; !ok {
			t.Fatal("event args missing id")
		}
	}
	// ms -> µs conversion: the global span starts at 5ms.
	found := false
	for _, ev := range doc.TraceEvents {
		if ev.Name == "global" && ev.Ts == 5000 {
			found = true
		}
	}
	if !found {
		t.Fatal("global span not at ts=5000µs")
	}
}

func TestCriticalPathsWalk(t *testing.T) {
	paths := CriticalPaths(sampleSpans())
	if len(paths) != 1 {
		t.Fatalf("%d paths, want 1", len(paths))
	}
	p := paths[0]
	if p.Round != 0 {
		t.Fatalf("round = %d", p.Round)
	}
	// global(5..9) <- pmsg(5..6) <- aggregate(4..5) <- umsg(3..4) <- train dev2(0..3)
	// The straggler is device 2: its uplink is the aggregate's only recorded
	// input hop.
	if p.Straggler != 2 {
		t.Fatalf("straggler = %d, want 2", p.Straggler)
	}
	if p.Total != 9 {
		t.Fatalf("total = %v, want 9 (global end 9 - leaf start 0)", p.Total)
	}
	if p.SlowestLink.ID == 0 {
		t.Fatal("no slowest link on a path with two hops")
	}
	sum := p.TrainMS + p.LinkMS + p.AggregateMS + p.GlobalMS
	if sum != p.Total {
		t.Fatalf("breakdown %v != total %v", sum, p.Total)
	}
}

func TestFlightRecorderRing(t *testing.T) {
	f := NewFlightRecorder(3)
	for i := 0; i < 5; i++ {
		f.Record(Event{Time: float64(i), Kind: "message"})
	}
	if f.Total() != 5 {
		t.Fatalf("total = %d", f.Total())
	}
	tail := f.Tail()
	if len(tail) != 3 {
		t.Fatalf("tail len = %d", len(tail))
	}
	for i, ev := range tail {
		if ev.Time != float64(i+2) {
			t.Fatalf("tail[%d].Time = %v, want %v (oldest first)", i, ev.Time, i+2)
		}
	}
	dump := f.Dump()
	if !strings.Contains(dump, "flight recorder: last 3 of 5 events") {
		t.Fatalf("dump header wrong:\n%s", dump)
	}
	var nilF *FlightRecorder
	nilF.Record(Event{})
	if nilF.Total() != 0 || nilF.Tail() != nil || nilF.Dump() != "" {
		t.Fatal("nil flight recorder not inert")
	}
	nilF.Hook()(simnet.Message{}) // must not panic
}

func TestFlightHookAndTee(t *testing.T) {
	f := NewFlightRecorder(8)
	var seen int
	tee := TeeMessageHooks(nil, f.Hook(), func(simnet.Message) { seen++ })
	tee(simnet.Message{From: 1, To: 2, At: 5, Payload: "p"})
	if f.Total() != 1 || seen != 1 {
		t.Fatalf("tee fan-out broken: total=%d seen=%d", f.Total(), seen)
	}
	tail := f.Tail()
	if tail[0].From != 1 || tail[0].To != 2 || tail[0].Detail != "string" {
		t.Fatalf("hooked event = %+v", tail[0])
	}
	if TeeMessageHooks(nil, nil) != nil {
		t.Fatal("all-nil tee should collapse to nil")
	}
}

// TestSpanConstructorsSentinels: each constructor fills the coordinates its
// kind of span has and leaves every other one at the -1 sentinel, with the
// structural IDs both ends of a hop compute.
func TestSpanConstructorsSentinels(t *testing.T) {
	for _, tc := range []struct {
		got, want Span
	}{
		{TrainSpan(3, 7, 2, 1, 99, 10, 20),
			Span{ID: SpanID("train", 3, 7), Parent: 99, Name: "train", Start: 10, End: 20, Round: 3, Level: 2, Cluster: 1, Device: 7, From: -1, To: -1}},
		{MsgSpan(5, 6, "uplink", 3, 2, 1, 10, 20, 800),
			Span{ID: 5, Parent: 6, Name: "msg", Start: 10, End: 20, Round: 3, Level: 2, Cluster: 1, Device: -1, From: -1, To: -1, Bytes: 800, Detail: "uplink"}},
		{AggregateSpan(3, 2, 1, 99, 10, 20, "median", 800, 4, 1),
			Span{ID: SpanID("aggregate", 3, 2, 1), Parent: 99, Name: "aggregate", Start: 10, End: 20, Round: 3, Level: 2, Cluster: 1, Device: -1, From: -1, To: -1, Rule: "median", Bytes: 800, Kept: 4, Filtered: 1}},
		{GlobalSpan(3, 10, 20, "voting", 800, 4, 0),
			Span{ID: SpanID("global", 3), Parent: SpanID("round", 3), Name: "global", Start: 10, End: 20, Round: 3, Device: -1, From: -1, To: -1, Rule: "voting", Bytes: 800, Kept: 4}},
		{RoundSpan(3, 10, 20),
			Span{ID: SpanID("round", 3), Name: "round", Start: 10, End: 20, Round: 3, Level: -1, Cluster: -1, Device: -1, From: -1, To: -1}},
		{PhaseSpan("phase-eval", 3, 10, 20),
			Span{ID: SpanID("phase-eval", 3), Parent: SpanID("round", 3), Name: "phase-eval", Start: 10, End: 20, Round: 3, Level: -1, Cluster: -1, Device: -1, From: -1, To: -1}},
	} {
		if tc.got != tc.want {
			t.Errorf("%s span:\n got %+v\nwant %+v", tc.want.Name, tc.got, tc.want)
		}
	}
}
