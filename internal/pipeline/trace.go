package pipeline

import (
	"abdhfl/internal/simnet"
	"abdhfl/internal/step"
	"abdhfl/internal/trace"
)

// Span emission for the pipeline engine. All emission runs on the
// single-threaded discrete-event dispatch loop, so spans record in program
// order and the tracer's auto-sequence numbers are deterministic — the
// exported stream is byte-identical across worker and shard counts.
//
// Parent links follow the consumer convention of internal/trace: a train
// span feeds its uplink msg span, an uplink feeds its cluster's aggregate
// span, an aggregate feeds the partial msg span it emits, partials feed the
// next aggregation up (the round's global span at the top), and the global
// span's parent is the round span. Every ID is a trace.SpanID hash of those
// structural coordinates, so both endpoints of a hop name the same span
// without coordination — including consumers that are recorded later, or
// never (a timed-out collection leaves its inputs' spans dangling, which is
// exactly what happened).

// traceTrain emits a device's train span for the round it just finished.
func (e *engine) traceTrain(dev, round int, start, end simnet.Time) {
	if e.tr != nil {
		e.tr.Record(trace.TrainSpan(round, dev, e.tree.Bottom(), e.deviceCluster[dev], trace.SpanID("umsg", round, dev), float64(start), float64(end)))
	}
}

// traceUplink emits the device->leader hop span for a counted upload.
func (e *engine) traceUplink(dev, round, level, cluster int, sentAt, at simnet.Time, dim int) {
	if e.tr == nil {
		return
	}
	s := trace.MsgSpan(trace.SpanID("umsg", round, dev), trace.SpanID("aggregate", round, level, cluster), "uplink",
		round, level, cluster, float64(sentAt), float64(at), int64(e.cfg.Codec.WireBytes(dim)))
	s.Device, s.From, s.To = dev, dev, int(e.clusterNode[level][cluster])
	e.tr.Record(s)
}

// tracePartial emits the child-cluster->parent hop span for a counted
// partial model. child is the sender's cluster index at level childLevel;
// (level, cluster) identify the consuming aggregation — level 0 means the
// top (the round's global span).
func (e *engine) tracePartial(childLevel, child, round, level, cluster int, sentAt, at simnet.Time, dim int) {
	if e.tr == nil {
		return
	}
	parent := trace.SpanID("aggregate", round, level, cluster)
	if level == 0 {
		parent = trace.SpanID("global", round)
	}
	s := trace.MsgSpan(trace.SpanID("pmsg", round, childLevel, child), parent, "partial",
		round, childLevel, child, float64(sentAt), float64(at), int64(e.cfg.Codec.WireBytes(dim)))
	s.From, s.To = int(e.clusterNode[childLevel][child]), int(e.clusterNode[level][cluster])
	e.tr.Record(s)
}

// traceAggregate emits a cluster aggregation span: collection closed at
// closeAt, the aggregate formed (after τ') at end.
func (e *engine) traceAggregate(level, cluster, round int, v *step.Verdict, closeAt, end simnet.Time) {
	if e.tr == nil {
		return
	}
	kept, filtered := v.Counts()
	e.tr.Record(trace.AggregateSpan(round, level, cluster, trace.SpanID("pmsg", round, level, cluster),
		float64(closeAt), float64(end), e.cfg.Partial.Bare(), 0, kept, filtered))
}

// traceGlobal emits the round's global-formation span plus the enclosing
// round span (first device start -> global formed).
func (e *engine) traceGlobal(round int, v *step.Verdict, end simnet.Time, dim int) {
	if e.tr == nil {
		return
	}
	start := e.rounds[round].firstPartial
	kept, filtered := v.Counts()
	e.tr.Record(trace.GlobalSpan(round, float64(start), float64(end), e.cfg.Global.Bare(), int64(e.cfg.Codec.WireBytes(dim)), kept, filtered))
	rs := e.rounds[round].start
	if rs == never {
		rs = start
	}
	e.tr.Record(trace.RoundSpan(round, float64(rs), float64(end)))
}
