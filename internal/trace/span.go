// Causal span layer. A Span is an interval on the engine clock (virtual
// milliseconds for the simulated engines, wall milliseconds for transport's
// wire spans)
// with a deterministic structural identity and a parent link pointing at the
// span that *consumed* its output — a train span feeds an uplink msg span,
// the msg span feeds its cluster's aggregate span, partial msg spans feed
// the round's global span. Walking children from a global span therefore
// reconstructs the round's contribution DAG (see path.go).
//
// Determinism discipline (same as the PR 6 event queue): spans are recorded
// into per-worker sharded buffers, and Spans() merges them into a total
// order by (Start, Seq, <every remaining field>). Span IDs are FNV-1a
// hashes of structural coordinates, never allocation counters, so the same
// protocol execution yields byte-identical exporter output for every worker
// count and every shard count. Parallel emitters must pass an explicit Seq
// (e.g. the device id); single-threaded emitters may leave Seq zero and
// receive a program-order sequence number.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"abdhfl/internal/telemetry"
)

// Span is one causally-linked interval of protocol work.
type Span struct {
	// ID is a deterministic structural identity (SpanID). Zero is reserved
	// for "no span".
	ID uint64 `json:"id"`
	// Parent is the ID of the span this span's output feeds into (the
	// consumer), or zero for roots. A parent may be recorded after its
	// children — IDs are structural, so forward references are fine — or
	// never at all (e.g. an upload whose aggregation timed out).
	Parent uint64 `json:"parent"`
	// Name classifies the span: "round", "phase-train", "phase-aggregate",
	// "phase-eval", "train", "aggregate", "global", "msg".
	Name string `json:"name"`
	// Start/End are engine-clock milliseconds.
	Start float64 `json:"start"`
	End   float64 `json:"end"`
	// Round, Level, Cluster, Device, From, To are -1 when not applicable.
	// None carry omitempty: zero values are real coordinates and must stay
	// distinguishable from the sentinel in JSONL output.
	Round   int `json:"round"`
	Level   int `json:"level"`
	Cluster int `json:"cluster"`
	Device  int `json:"device"`
	From    int `json:"from"`
	To      int `json:"to"`
	// Rule is the aggregation rule applied (aggregate/global spans).
	Rule string `json:"rule,omitempty"`
	// Bytes is the codec wire size carried by this hop or transfer.
	Bytes int64 `json:"bytes,omitempty"`
	// Kept/Filtered count contributions accepted vs discarded by the
	// robust rule (aggregate/global spans; both zero elsewhere).
	Kept     int `json:"kept"`
	Filtered int `json:"filtered"`
	// Detail is free-form context (payload type, scheme name, ...).
	Detail string `json:"detail,omitempty"`
	// Seq breaks Start ties deterministically. Caller-supplied on parallel
	// paths; auto-assigned in program order when left zero.
	Seq uint64 `json:"seq"`
}

// SpanID returns the deterministic structural identity of a span: an FNV-1a
// hash of its name and integer coordinates. Engines on both sides of a hop
// compute the same ID from the same coordinates, which is what lets a
// message span name its not-yet-recorded consumer as Parent.
func SpanID(name string, coords ...int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	for _, c := range coords {
		v := uint64(int64(c))
		for s := 0; s < 64; s += 8 {
			h ^= (v >> s) & 0xff
			h *= prime64
		}
	}
	if h == 0 {
		h = offset64 // keep zero reserved for "no span"
	}
	return h
}

// newSpan is the one place the -1 "not applicable" sentinels are written:
// the constructors below start from it and fill in the coordinates their kind
// of span has. What stays with each engine is its clock (the start and end it
// passes) and its choice of consumer (the parent it passes).
func newSpan(name string, id, parent uint64, round int, start, end float64) Span {
	return Span{ID: id, Parent: parent, Name: name, Start: start, End: end,
		Round: round, Level: -1, Cluster: -1, Device: -1, From: -1, To: -1}
}

// TrainSpan is device dev's local training for a round; (level, cluster) is
// its bottom cluster and parent the span its update feeds.
func TrainSpan(round, dev, level, cluster int, parent uint64, start, end float64) Span {
	s := newSpan("train", SpanID("train", round, dev), parent, round, start, end)
	s.Level, s.Cluster, s.Device = level, cluster, dev
	return s
}

// MsgSpan is one model transfer of the named kind ("uplink", "partial") at
// (level, cluster); the caller sets Device, From and To where its transport
// knows them.
func MsgSpan(id, parent uint64, detail string, round, level, cluster int, start, end float64, bytes int64) Span {
	s := newSpan("msg", id, parent, round, start, end)
	s.Level, s.Cluster, s.Bytes, s.Detail = level, cluster, bytes, detail
	return s
}

// AggregateSpan is cluster (level, cluster)'s aggregation step with its
// rule and the kept/filtered pair of its verdict.
func AggregateSpan(round, level, cluster int, parent uint64, start, end float64, rule string, bytes int64, kept, filtered int) Span {
	s := newSpan("aggregate", SpanID("aggregate", round, level, cluster), parent, round, start, end)
	s.Level, s.Cluster, s.Rule, s.Bytes, s.Kept, s.Filtered = level, cluster, rule, bytes, kept, filtered
	return s
}

// GlobalSpan is the round's global-model formation at the top cluster; it
// feeds the round span.
func GlobalSpan(round int, start, end float64, rule string, bytes int64, kept, filtered int) Span {
	s := newSpan("global", SpanID("global", round), SpanID("round", round), round, start, end)
	s.Level, s.Cluster, s.Rule, s.Bytes, s.Kept, s.Filtered = 0, 0, rule, bytes, kept, filtered
	return s
}

// RoundSpan is a whole round, the root of its span tree.
func RoundSpan(round int, start, end float64) Span {
	return newSpan("round", SpanID("round", round), 0, round, start, end)
}

// PhaseSpan is one named phase envelope ("phase-train", ...) of a round.
func PhaseSpan(name string, round int, start, end float64) Span {
	return newSpan(name, SpanID(name, round), SpanID("round", round), round, start, end)
}

// spanShard is one lock-striped append buffer.
type spanShard struct {
	mu    sync.Mutex
	spans []Span
	_     [40]byte // keep shards off each other's cache lines
}

// Tracer records spans into sharded buffers and merges them into a
// deterministic total order. The zero value is unusable; call NewTracer.
// All methods are nil-receiver safe so engines can embed an optional
// *Tracer without branching.
type Tracer struct {
	shards   []spanShard
	mask     uint64
	cap      int64
	retained atomic.Int64
	dropped  atomic.Int64
	seq      atomic.Uint64
	// DroppedCounter, when set, mirrors drops into telemetry
	// (abdhfl_trace_dropped_total).
	DroppedCounter *telemetry.Counter
}

// DefaultSpanCap bounds retained spans when NewTracer is given cap <= 0.
const DefaultSpanCap = 1 << 20

// NewTracer returns a Tracer with the given shard count (clamped to a power
// of two in [1, 256]) and span capacity (<=0 means DefaultSpanCap). Shard
// count affects only contention, never output: Spans() is byte-identical
// for every shard count.
func NewTracer(shards, capacity int) *Tracer {
	n := 1
	for n < shards && n < 256 {
		n <<= 1
	}
	if capacity <= 0 {
		capacity = DefaultSpanCap
	}
	return &Tracer{shards: make([]spanShard, n), mask: uint64(n - 1), cap: int64(capacity)}
}

// Record stores a span (or counts it as dropped past the capacity). Safe
// for concurrent use; a nil receiver is a no-op.
func (t *Tracer) Record(s Span) {
	if t == nil {
		return
	}
	if s.Seq == 0 {
		s.Seq = t.seq.Add(1)
	}
	if t.retained.Add(1) > t.cap {
		t.retained.Add(-1)
		t.dropped.Add(1)
		t.DroppedCounter.Inc()
		return
	}
	sh := &t.shards[s.Seq&t.mask]
	sh.mu.Lock()
	sh.spans = append(sh.spans, s)
	sh.mu.Unlock()
}

// Len returns the number of retained spans. Nil-safe.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return int(t.retained.Load())
}

// Dropped returns the number of spans discarded past the capacity. Nil-safe.
func (t *Tracer) Dropped() int {
	if t == nil {
		return 0
	}
	return int(t.dropped.Load())
}

// Spans merges every shard into the deterministic total order. The result
// is a fresh slice; the tracer keeps recording unaffected.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	out := make([]Span, 0, t.Len())
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		out = append(out, sh.spans...)
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return spanLess(&out[i], &out[j]) })
	return out
}

// spanLess is a strict total order over distinct spans: (Start, Seq) first
// — the causal sort the exporters promise — then every remaining field so
// that no pair of distinct spans ever compares equal, which is what makes
// the merged stream invariant under shard and worker counts.
func spanLess(a, b *Span) bool {
	switch {
	case a.Start != b.Start:
		return a.Start < b.Start
	case a.Seq != b.Seq:
		return a.Seq < b.Seq
	case a.Name != b.Name:
		return a.Name < b.Name
	case a.Round != b.Round:
		return a.Round < b.Round
	case a.Level != b.Level:
		return a.Level < b.Level
	case a.Cluster != b.Cluster:
		return a.Cluster < b.Cluster
	case a.Device != b.Device:
		return a.Device < b.Device
	case a.From != b.From:
		return a.From < b.From
	case a.To != b.To:
		return a.To < b.To
	case a.End != b.End:
		return a.End < b.End
	case a.ID != b.ID:
		return a.ID < b.ID
	case a.Parent != b.Parent:
		return a.Parent < b.Parent
	case a.Kept != b.Kept:
		return a.Kept < b.Kept
	case a.Filtered != b.Filtered:
		return a.Filtered < b.Filtered
	case a.Bytes != b.Bytes:
		return a.Bytes < b.Bytes
	case a.Rule != b.Rule:
		return a.Rule < b.Rule
	default:
		return a.Detail < b.Detail
	}
}

// WriteJSONL emits the merged spans as JSON Lines, one span per line, in
// the deterministic total order. Nil-safe (writes nothing).
func (t *Tracer) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// DroppedWarning returns a one-line operator warning when the tracer
// dropped events past its capacity, and "" otherwise. The cmd binaries print
// it on their summaries.
func DroppedWarning(what string, dropped int) string {
	if dropped <= 0 {
		return ""
	}
	return fmt.Sprintf("WARNING: %s dropped %d events past its capacity (raise the trace cap to keep them)", what, dropped)
}
