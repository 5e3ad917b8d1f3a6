package realtime

import (
	"time"

	"abdhfl/internal/topology"
	"abdhfl/internal/trace"
)

// rtTracer emits causal spans from the goroutine engine. The span shapes and
// structural IDs match internal/pipeline's emission (train -> umsg ->
// aggregate -> pmsg -> ... -> global -> round), but the clock is real wall
// time (milliseconds since Run started) and emitters run concurrently — so
// the recorded stream is race-safe but NOT reproducible between runs, just
// like everything else this engine measures. Golden trace tests therefore pin
// the core and pipeline engines only; realtime coverage is -race smoke.
//
// Seq is left zero on every Record: the tracer's atomic auto-sequence is
// safe under concurrency, and without reproducibility there is nothing for a
// caller-supplied Seq to stabilise.
//
// All methods are nil-receiver safe; a nil *rtTracer (Config.Trace unset)
// keeps the hot paths free of even the clock reads.
type rtTracer struct {
	tr        *trace.Tracer
	start     time.Time
	bottom    int
	bytes     int64
	clusterOf []int // device id -> bottom-level cluster index
	leaderOf  []int // device id -> bottom-level leader device id
}

func newRTTracer(tr *trace.Tracer, tree *topology.Tree, bytes int64) *rtTracer {
	if tr == nil {
		return nil
	}
	rt := &rtTracer{
		tr:        tr,
		start:     time.Now(),
		bottom:    tree.Bottom(),
		bytes:     bytes,
		clusterOf: make([]int, tree.NumDevices()),
		leaderOf:  make([]int, tree.NumDevices()),
	}
	for ci, cl := range tree.Clusters[tree.Bottom()] {
		for _, m := range cl.Members {
			rt.clusterOf[m] = ci
			rt.leaderOf[m] = cl.Leader
		}
	}
	return rt
}

// now is the engine clock: wall milliseconds since the run began.
func (rt *rtTracer) now() float64 {
	return float64(time.Since(rt.start).Microseconds()) / 1000
}

// train emits a device's completed SGD pass for a round.
func (rt *rtTracer) train(dev, round int, startMS float64) {
	if rt != nil {
		rt.tr.Record(trace.TrainSpan(round, dev, rt.bottom, rt.clusterOf[dev], trace.SpanID("umsg", round, dev), startMS, rt.now()))
	}
}

// uplink emits the device->leader hop for an upload actually sent. Channel
// sends are effectively instantaneous, so the hop is a point interval at the
// send time.
func (rt *rtTracer) uplink(dev, round int) {
	if rt == nil {
		return
	}
	at := rt.now()
	s := trace.MsgSpan(trace.SpanID("umsg", round, dev), trace.SpanID("aggregate", round, rt.bottom, rt.clusterOf[dev]), "uplink",
		round, rt.bottom, rt.clusterOf[dev], at, at, rt.bytes)
	s.Device, s.From, s.To = dev, dev, rt.leaderOf[dev]
	rt.tr.Record(s)
}

// aggregate emits a leader's collection-close-to-formed span plus the
// partial-model hop up to its consumer. firstMS is when the round's first
// input arrived at this leader. parentLevel -1 means the parent is the top.
func (rt *rtTracer) aggregate(level, ci, round, parentLevel, parentCi, kept, filtered int, firstMS float64, rule string) {
	if rt == nil {
		return
	}
	end := rt.now()
	pmsg := trace.SpanID("pmsg", round, level, ci)
	rt.tr.Record(trace.AggregateSpan(round, level, ci, pmsg, firstMS, end, rule, 0, kept, filtered))
	parent := trace.SpanID("global", round)
	if parentLevel >= 0 {
		parent = trace.SpanID("aggregate", round, parentLevel, parentCi)
	}
	rt.tr.Record(trace.MsgSpan(pmsg, parent, "partial", round, level, ci, end, end, rt.bytes))
}

// global emits the round's global-formation span and the enclosing round
// span (realtime has no per-round barrier, so the round span covers first
// partial arrival -> global formed, the only interval the top observes).
func (rt *rtTracer) global(round, kept, filtered int, firstMS float64, rule string) {
	if rt == nil {
		return
	}
	end := rt.now()
	rt.tr.Record(trace.GlobalSpan(round, firstMS, end, rule, rt.bytes, kept, filtered))
	rt.tr.Record(trace.RoundSpan(round, firstMS, end))
}
