package pipeline

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"abdhfl/internal/codec"
	"abdhfl/internal/fault"
	"abdhfl/internal/nn"
	"abdhfl/internal/rng"
	"abdhfl/internal/simnet"
	"abdhfl/internal/step"
	"abdhfl/internal/tensor"
	"abdhfl/internal/topology"
	"abdhfl/internal/trace"
)

// Message payloads exchanged between actors. A sent model vector is
// immutable: the sender finishes writing params (its codec hop included)
// before the send, and from then on every holder — each recipient of a
// fan-out, the collectors that retain it, the engine's codec reference — only
// reads it. That is what lets one vector be shared by all of them uncopied.
// An upload or a partial names its sender by the message's From: a device's
// node id is its id, and a level's leaders have consecutive node ids.
type (
	msgLocal struct { // device -> bottom cluster leader
		round  int
		params tensor.Vector
	}
	msgPartial struct { // cluster leader -> parent leader / top
		round  int
		params tensor.Vector
	}
	msgFlag struct { // flag-level cluster -> descendants
		round   int // the round this flag model STARTS (paper's r+1)
		params  tensor.Vector
		relSize float64
	}
	msgGlobal struct { // top -> everyone
		round    int
		params   tensor.Vector
		formedAt simnet.Time
	}
)

// TraceRound implements trace.RoundCarrier so simulator traces stamp message
// events with their protocol round.
func (m msgLocal) TraceRound() int   { return m.round }
func (m msgPartial) TraceRound() int { return m.round }
func (m msgFlag) TraceRound() int    { return m.round }
func (m msgGlobal) TraceRound() int  { return m.round }

// engine wires the actors together and accumulates statistics.
type engine struct {
	cfg  Config
	tree *topology.Tree
	sim  *simnet.Sim
	root *rng.RNG

	deviceLeader []simnet.NodeID // device id -> bottom cluster actor id
	clusterNode  [][]simnet.NodeID

	// arrivals holds every bottom cluster's per-round timing observations,
	// Rounds of them per cluster, and rounds the top's, one per round; a
	// time not observed yet reads never.
	arrivals []arrivals
	rounds   []roundTimes

	result  *Result
	workers int
	// st is shared by every cluster's step, the top's included: every step
	// runs on the event loop (discrete events run one at a time; only local
	// training leaves it, see pool), so one warm stepper serves all actors
	// without contention. Every step's destination comes from the process
	// store (take). A step that fails drops its cluster's round; obs counts
	// it and keeps the first error for Result.StepError.
	st  *step.Stepper
	obs *step.Observer
	// ins holds the run's telemetry handles; nil (and every call a no-op)
	// when Config.Telemetry is unset.
	ins      *instruments
	quorumOf func(size int) int
	alpha    AlphaPolicy
	// completed counts the global rounds formed; done is set once it
	// reaches Config.Rounds.
	completed int
	done      bool
	// plan is the run's fault plan (nil-safe: every query on a nil plan
	// reports "no fault"). faulty gates the extra liveness machinery —
	// flag-armed deadlines — that only faulted runs need.
	plan    *fault.Plan
	faulty  bool
	backoff float64
	retries int
	// cs is the engine's codec scratch (every codec hop runs on the event
	// loop, so one serves every actor); lastRef is the last formed — and
	// decoded — global model, the Delta reference every non-device hop uses.
	// codecErr latches the first transcode failure; the run is failed with it
	// after the drain (actor callbacks have no error return path).
	cs       *codec.Scratch
	lastRef  tensor.Vector
	codecErr error
	// init is the initial model, every device's round-0 start.
	init tensor.Vector
	// vote is the top's consensus stream of the round, "vote-<round>".
	vote rng.RNG
	// tr is the optional causal span tracer (nil disables emission
	// entirely — every trace* helper returns immediately). deviceCluster
	// maps device id -> bottom cluster index, only for span attrs.
	tr            *trace.Tracer
	deviceCluster []int
	// pool trains devices off the event loop; models is the process
	// store's model pool of the run's shape, which the training workers,
	// the evaluation model and the stepper's validators borrow from.
	pool   trainPool
	models *nn.EvalPool
	dim    int
	// held lists what the run took from the store and reads until it ends:
	// the initial model, every flag-level partial and every global (each a
	// start model or a merge input of devices, whenever they get to it).
	// giveBack returns them once the training workers are joined.
	held []tensor.Vector
	devs []*deviceActor
}

// Per-round timing observations, each the earliest (virtual time never
// decreases, so the first) and never until made: arrivals are a bottom
// cluster's (its first upload, the flag that starts the round, the global),
// roundTimes the top's (first partial, global formed) and, for span attrs
// only, the earliest device training start.
const never simnet.Time = math.MaxFloat64

type (
	arrivals   struct{ first, flag, global simnet.Time }
	roundTimes struct{ firstPartial, globalReady, start simnet.Time }
)

// arrival returns bottom cluster b's observations of round.
func (e *engine) arrival(b, round int) *arrivals { return &e.arrivals[b*e.cfg.Rounds+round] }

// take borrows a model vector from the process store for a training or a
// step to overwrite.
func (e *engine) take() tensor.Vector { return step.Store.Take(e.dim) }

// recycle gives vectors back to the store at their last read (step.Store
// states the rule). A model vector is sent once, to one collector, unless
// it is a flag or a global (see clusterActor.recycles; those are held), so
// the collector's step is its last read: a duplicated or late delivery of it
// is dropped unread.
func (e *engine) recycle(vs ...tensor.Vector) { step.Store.Put(vs...) }

// giveBack ends the run's hold on the store, after stopTraining: it gives
// back every held vector but res's FinalParams, which is the caller's (res
// is nil on an error return), and every upload a worker filled that nobody
// joined.
func (e *engine) giveBack(res *Result) {
	for _, d := range e.devs {
		if d.training {
			e.recycle(d.trained)
		}
	}
	if res != nil && res.FinalParams != nil {
		final := &res.FinalParams[0]
		e.held = slices.DeleteFunc(e.held, func(v tensor.Vector) bool { return &v[0] == final })
	}
	e.recycle(e.held...)
}

// Hop indices of the per-hop wire-byte counters.
const (
	hopUplink  = iota // device -> bottom cluster leader
	hopPartial        // cluster leader -> parent / top
	hopFlag           // flag-model dissemination downwards
	hopGlobal         // global-model dissemination downwards
	numHops
)

var hopNames = [numHops]string{"uplink", "partial", "flag", "global"}

// transcodeHop passes a freshly formed model vector through the codec
// (step.Hop, in place) with ref as the Delta reference both endpoints hold.
// Forwarded copies of the same vector re-ship the same bytes and must NOT
// call this again — charge them with volume only.
func (e *engine) transcodeHop(v, ref tensor.Vector) {
	e.cs.Ref = ref
	if _, err := step.Hop(e.cfg.Codec, v, e.cs); err != nil && e.codecErr == nil {
		e.codecErr = fmt.Errorf("pipeline: codec %s: %w", e.cfg.Codec.Name(), err)
	}
}

// volume returns the link charge for one model transfer, its wire bytes,
// and accounts it per hop.
func (e *engine) volume(hop, dim int) int64 {
	n := int64(e.cfg.Codec.WireBytes(dim))
	e.result.WireBytes += n
	e.ins.wireHop(hop, n)
	return n
}

// subQuorum records one degraded aggregation (timeout closed a round below
// quorum).
func (e *engine) subQuorum() {
	e.result.SubQuorum++
	e.ins.subQuorum()
}

// abandoned records one collection given up with zero inputs.
func (e *engine) abandoned() {
	e.result.Abandoned++
	e.ins.abandoned()
}

func (e *engine) nodeOfCluster(l, i int) simnet.NodeID { return e.clusterNode[l][i] }

// trainDuration returns the virtual training time of device id for round r.
func (e *engine) trainDuration(id, round int) simnet.Time {
	t := e.cfg.Timing.TrainBase
	if j := e.cfg.Timing.TrainJitter; j > 0 {
		t *= 1 + j*e.root.DeriveDecimals("tdur-", id, round).Float64()
	}
	return simnet.Time(t)
}

// aggDuration returns the virtual aggregation time of a cluster at level l
// for round r (the paper's τ'); the top level adds GlobalExtra.
func (e *engine) aggDuration(l, i, round int) simnet.Time {
	t := e.cfg.Timing.AggBase
	if j := e.cfg.Timing.AggJitter; j > 0 {
		t *= 1 + j*e.root.DeriveDecimals("adur-", l, i, round).Float64()
	}
	if l == 0 {
		t += e.cfg.Timing.GlobalExtra
	}
	return simnet.Time(t)
}

// deviceActor trains locally, uploads, and merges stale globals (Alg. 2).
// A device trains one round at a time: curRound and startParams are the
// in-flight training's, which its finish timer reads.
type deviceActor struct {
	e           *engine
	id          int
	relSize     float64
	training    bool
	curRound    int
	startParams tensor.Vector
	trainStart  simnet.Time
	// stashed is the newest flag that arrived during training; its params
	// are nil when there is none.
	stashed    msgFlag
	pending    []msgGlobal
	seenGlobal []bool // by round
	// trained is the in-flight training's upload, which its worker fills
	// before join is done.
	trained tensor.Vector
	join    sync.WaitGroup
}

// OnTimer is the in-flight training's finish, or at t=0 the bootstrap.
func (d *deviceActor) OnTimer(ctx *simnet.Context, _ int) {
	if d.training {
		d.finish(ctx)
	} else {
		d.start(ctx, 0, d.e.init, 1)
	}
}

func (d *deviceActor) OnMessage(ctx *simnet.Context, msg simnet.Message) {
	switch m := msg.Payload.(type) {
	case msgFlag:
		if m.round >= d.e.cfg.Rounds || d.e.plan.DeviceDown(d.id, m.round) {
			return
		}
		if d.training {
			if d.stashed.params == nil || m.round > d.stashed.round {
				d.stashed = m
			}
			return
		}
		if m.round > d.curRound {
			d.start(ctx, m.round, m.params, m.relSize)
		}
	case msgGlobal:
		// Stale global: merged into the in-progress local model at training
		// completion (Alg. 2 line 16-18). A down device processes nothing, and
		// a duplicated delivery must not be merged twice — Eq. (1)'s merge is
		// once per formed global.
		if d.e.plan.DeviceDown(d.id, m.round) || d.seenGlobal[m.round] {
			return
		}
		d.seenGlobal[m.round] = true
		d.pending = append(d.pending, m)
	}
}

func (d *deviceActor) start(ctx *simnet.Context, round int, params tensor.Vector, relSize float64) {
	if d.e.plan.DeviceDown(d.id, round) {
		// Crash (fail-stop) or churn interval: the round is skipped. Churned
		// devices resume at the next flag model after their interval ends.
		return
	}
	d.training = true
	d.curRound = round
	d.startParams = params
	d.relSize = relSize
	if d.e.tr != nil {
		d.trainStart = ctx.Now()
		r := &d.e.rounds[round]
		r.start = min(r.start, ctx.Now())
	}
	d.trained = d.e.take()
	d.join.Add(1)
	d.e.pool.jobs <- trainJob{d: d, round: round, start: params}
	ctx.AtArg(ctx.Now()+d.e.trainDuration(d.id, round), 0)
}

func (d *deviceActor) finish(ctx *simnet.Context) {
	e := d.e
	round := d.curRound
	// Join the training dispatched at start; from here on everything happens
	// on the loop and in event order, whatever the worker count.
	d.join.Wait()
	out := d.trained
	// Correction-factor merges for globals that arrived during training.
	for _, g := range d.pending {
		if e.cfg.FlagLevel == 0 && g.round < round {
			// With ℓF = 0 the flag model IS the global model, so a global
			// formed before this round's flag is already this round's start
			// parameters; merging it again would just drag the trained model
			// back toward its own starting point.
			continue
		}
		staleness := float64(ctx.Now() - g.formedAt)
		alpha := e.alpha.Alpha(staleness, d.relSize)
		tensor.Lerp(out, out, g.params, alpha)
		e.result.MergedGlobals++
		e.ins.mergedGlobal(staleness)
	}
	d.pending = d.pending[:0]
	d.training = false
	e.traceTrain(d.id, round, d.trainStart, ctx.Now())
	if e.plan.OmitUpload(d.id, round) {
		// Omission-Byzantine: train, receive, but silently withhold the
		// upload. The leader's quorum/timeout machinery must absorb it.
		e.result.Omitted++
		e.ins.omitted()
		e.recycle(out)
	} else {
		// Uplink codec hop: the round's start parameters are the Delta
		// reference (the leader disseminated them, so both ends hold them).
		e.transcodeHop(out, d.startParams)
		ctx.SendVolume(e.deviceLeader[d.id], msgLocal{round: round, params: out}, e.volume(hopUplink, len(out)))
	}
	if f := d.stashed; f.params != nil {
		d.stashed = msgFlag{}
		if f.round > round {
			d.start(ctx, f.round, f.params, f.relSize)
		}
	}
}

// clusterActor is the leader A_{l,i} of a cluster: collect a quorum,
// aggregate, forward upwards; at the flag level it also releases the flag
// model downwards (Alg. 3-5). The top (level 0, a cluster of peers with no
// server above it) runs the same collect, and its step forms and
// disseminates the global model instead (Alg. 6).
type clusterActor struct {
	e        *engine
	cluster  *topology.Cluster
	parent   simnet.NodeID   // unset at the top
	children []simnet.NodeID // child cluster actors, or member devices at the bottom
	// marks holds each round's markArmed and markClosed bits. open holds
	// the rounds collecting now or closed and waiting for their step; spare
	// holds collections whose step has run, which the next round to open
	// reuses.
	marks    []uint8
	open     []*collection
	spare    []*collection
	isBottom bool
	// recycles reports that this leader's step is its inputs' last read:
	// uploads, and partials of a level that is not the flag level (a flag
	// partial is also every device's start model below it).
	recycles bool
	// relSize is the fraction of all devices under a flag-level cluster,
	// carried by its flags.
	relSize float64
}

// Per-round marks of a cluster leader.
const (
	markArmed  uint8 = 1 << iota // the round's collect deadline is scheduled
	markClosed                   // the round's collection is closed
)

// collection is one round's collect at a leader. vecs holds the inputs in
// arrival order; ids, in lockstep, each input's contributor id (device id
// at the bottom, child-cluster leader id above) so filter audits can name
// who was kept or discarded, kept only when the stepper records verdicts.
// seen marks the children already counted, by position in children: the
// fault layer can duplicate messages, and a duplicated upload must never
// count twice toward the quorum. closeAt is when the collection closed.
type collection struct {
	round   int
	vecs    []tensor.Vector
	ids     []int
	seen    []bool
	closeAt simnet.Time
}

// Cluster timers: OnTimer's argument is timerArg's packing of one of these
// kinds with its round and attempt.
const (
	clArm      = iota // arm the round's collect deadline (the top's round 0)
	clDeadline        // a collect deadline or timeout (collectDeadline)
	clStep            // the closed collection's aggregation time is up
	numClusterTimers
)

// timerArg packs a cluster timer, armed for a round below Config.Rounds.
func (a *clusterActor) timerArg(kind, round, attempt int) int {
	return (attempt*a.e.cfg.Rounds+round)*numClusterTimers + kind
}

func (a *clusterActor) OnTimer(ctx *simnet.Context, arg int) {
	kind, arg := arg%numClusterTimers, arg/numClusterTimers
	round, attempt := arg%a.e.cfg.Rounds, arg/a.e.cfg.Rounds
	switch kind {
	case clArm:
		a.armCollect(ctx, round, 0)
	case clDeadline:
		a.collectDeadline(ctx, round, attempt)
	case clStep:
		i := slices.IndexFunc(a.open, func(c *collection) bool { return c.round == round })
		c := a.open[i]
		a.open = slices.Delete(a.open, i, i+1)
		if !a.failed(round) {
			a.step(ctx, round, c.vecs, c.ids, c.closeAt)
		}
		if a.recycles {
			a.e.recycle(c.vecs...)
		}
		c.vecs, c.ids = c.vecs[:0], c.ids[:0]
		clear(c.seen)
		a.spare = append(a.spare, c)
	}
}

// collecting returns round's open collection, closed or not, nil if it has
// none.
func (a *clusterActor) collecting(round int) *collection {
	for _, c := range a.open {
		if c.round == round {
			return c
		}
	}
	return nil
}

// collected returns how many inputs round's collection holds.
func (a *clusterActor) collected(round int) int {
	if c := a.collecting(round); c != nil {
		return len(c.vecs)
	}
	return 0
}

// failed reports whether this cluster's leader is fault-planned down for
// round: it then neither collects nor forwards anything.
func (a *clusterActor) failed(round int) bool {
	return a.e.plan.LeaderFailed(a.cluster.Level, a.cluster.Index, round)
}

func (a *clusterActor) OnMessage(ctx *simnet.Context, msg simnet.Message) {
	e := a.e
	switch m := msg.Payload.(type) {
	case msgLocal:
		if a.failed(m.round) {
			return
		}
		a.receive(ctx, m.round, m.params, int(msg.From), msg.SentAt, -1)
	case msgPartial:
		if a.failed(m.round) {
			return
		}
		child := int(msg.From - e.nodeOfCluster(a.cluster.Level+1, 0))
		a.receive(ctx, m.round, m.params, e.tree.Clusters[a.cluster.Level+1][child].Leader, msg.SentAt, child)
	case msgFlag:
		if a.failed(m.round) {
			return
		}
		// Cascade the flag model downwards (Alg. 5).
		if a.isBottom && m.round < e.cfg.Rounds {
			at := e.arrival(a.cluster.Index, m.round)
			at.flag = min(at.flag, ctx.Now())
		}
		for _, ch := range a.children {
			ctx.SendVolume(ch, msg.Payload, e.volume(hopFlag, len(m.params)))
		}
		// A forwarded flag is proof that round m.round is starting below:
		// under faults, arm the collect deadline now so the round cannot
		// stall even if every upload is lost.
		a.armCollect(ctx, m.round, 0)
	case msgGlobal:
		if a.failed(m.round) {
			return
		}
		if a.isBottom {
			at := e.arrival(a.cluster.Index, m.round)
			at.global = min(at.global, ctx.Now())
		}
		for _, ch := range a.children {
			ctx.SendVolume(ch, msg.Payload, e.volume(hopGlobal, len(m.params)))
		}
	}
}

// armCollect schedules attempt's collect deadline for round (faulted runs
// only; fault-free runs keep the seed's first-arrival arming). Every empty
// expiry re-arms with the deadline multiplied by the backoff until the
// retry budget is spent, after which the round is abandoned.
func (a *clusterActor) armCollect(ctx *simnet.Context, round, attempt int) {
	e := a.e
	if !e.faulty || e.cfg.CollectTimeout <= 0 || round >= e.cfg.Rounds {
		return
	}
	if attempt == 0 {
		if a.marks[round] != 0 {
			return
		}
		a.marks[round] |= markArmed
	}
	d := e.cfg.CollectTimeout * math.Pow(e.backoff, float64(attempt))
	ctx.AtArg(ctx.Now()+simnet.Time(d), a.timerArg(clDeadline, round, attempt))
}

// collectDeadline is the timeout branch of Algorithm 4 with backoff: a
// deadline firing with a non-empty sub-quorum set aggregates it (degraded
// operation); an empty one re-arms, then abandons. The timeout a fault-free
// run arms at a round's first arrival fires here too, never empty.
func (a *clusterActor) collectDeadline(ctx *simnet.Context, round, attempt int) {
	e := a.e
	if a.marks[round]&markClosed != 0 {
		return
	}
	if n := a.collected(round); n > 0 {
		if n < e.quorumOf(a.cluster.Size()) {
			e.subQuorum()
		}
		a.aggregateRound(ctx, round)
		return
	}
	if attempt+1 < e.retries {
		a.armCollect(ctx, round, attempt+1)
		return
	}
	a.marks[round] |= markClosed
	e.abandoned()
}

// receive counts one contribution: a device upload (child < 0, from is the
// device id) or a child cluster's partial (child is its index at the level
// below). sentAt is the hop's send time, kept only for span emission.
func (a *clusterActor) receive(ctx *simnet.Context, round int, params tensor.Vector, from int, sentAt simnet.Time, child int) {
	e := a.e
	if round >= e.cfg.Rounds || a.marks[round]&markClosed != 0 {
		return
	}
	sender := simnet.NodeID(from)
	if child >= 0 {
		sender = e.nodeOfCluster(a.cluster.Level+1, child)
	}
	c := a.collecting(round)
	if c == nil {
		c = a.openRound(round)
	}
	pos := slices.Index(a.children, sender)
	if c.seen[pos] {
		return // duplicate delivery of an already-counted contribution
	}
	c.seen[pos] = true
	if child < 0 {
		e.traceUplink(from, round, a.cluster.Level, a.cluster.Index, sentAt, ctx.Now(), len(params))
	} else {
		e.tracePartial(a.cluster.Level+1, child, round, a.cluster.Level, a.cluster.Index, sentAt, ctx.Now(), len(params))
	}
	if a.isBottom {
		at := e.arrival(a.cluster.Index, round)
		at.first = min(at.first, ctx.Now())
	}
	if a.cluster.Level == 0 {
		r := &e.rounds[round]
		r.firstPartial = min(r.firstPartial, ctx.Now())
	}
	first := len(c.vecs) == 0
	c.vecs = append(c.vecs, params)
	if e.st.Records() {
		c.ids = append(c.ids, from)
	}
	if first && a.cluster.Level > 0 && e.cfg.CollectTimeout > 0 && !e.faulty {
		// Algorithm 4's "until M >= φ*C or Timeout": arm the semi-synchronous
		// deadline at the first arrival for this round. (Faulted runs arm at
		// flag forwarding instead, see armCollect; the top waits for its
		// quorum.)
		ctx.AtArg(ctx.Now()+simnet.Time(e.cfg.CollectTimeout), a.timerArg(clDeadline, round, 0))
	}
	if first {
		a.armCollect(ctx, round, 0)
	}
	if len(c.vecs) < e.quorumOf(a.cluster.Size()) {
		return
	}
	a.aggregateRound(ctx, round)
}

// openRound opens round's collection, on a spare one if there is one.
func (a *clusterActor) openRound(round int) *collection {
	var c *collection
	if n := len(a.spare); n > 0 {
		c, a.spare = a.spare[n-1], a.spare[:n-1]
	} else {
		c = &collection{vecs: make([]tensor.Vector, 0, len(a.children)), seen: make([]bool, len(a.children))}
	}
	c.round = round
	a.open = append(a.open, c)
	return c
}

// aggregateRound closes the round's collection and aggregates whatever
// arrived (quorum reached or timeout fired) once the aggregation time is up
// (OnTimer's clStep).
func (a *clusterActor) aggregateRound(ctx *simnet.Context, round int) {
	a.marks[round] |= markClosed
	a.collecting(round).closeAt = ctx.Now()
	ctx.AtArg(ctx.Now()+a.e.aggDuration(a.cluster.Level, a.cluster.Index, round), a.timerArg(clStep, round, 0))
}

// step forms the round's partial from the closed collection and forwards
// it: upwards, and at the flag level downwards as the next round's flag. The
// top forms the global instead.
func (a *clusterActor) step(ctx *simnet.Context, round int, vecs []tensor.Vector, ids []int, closeAt simnet.Time) {
	if a.cluster.Level == 0 {
		a.formGlobal(ctx, round, vecs, ids)
		return
	}
	e := a.e
	dst := e.take()
	agg, v, _, err := e.st.Aggregate(e.cfg.Partial, step.Input{
		Level: a.cluster.Level, Cluster: a.cluster.Index, Round: round,
		Vecs: vecs, IDs: ids, Dst: dst,
	})
	if err != nil {
		// A malformed quorum at runtime: drop the round for this cluster.
		e.recycle(dst)
		return
	}
	e.traceAggregate(a.cluster.Level, a.cluster.Index, round, &v, closeAt, ctx.Now())
	// One codec hop per formed partial: the upward send and the flag
	// release below ship the same encoded bytes.
	e.transcodeHop(agg, e.lastRef)
	ctx.SendVolume(a.parent, msgPartial{round: round, params: agg}, e.volume(hopPartial, len(agg)))
	if a.cluster.Level == e.cfg.FlagLevel {
		// Boxed once for the whole fan-out.
		var flag any = msgFlag{round: round + 1, params: agg, relSize: a.relSize}
		for _, ch := range a.children {
			ctx.SendVolume(ch, flag, e.volume(hopFlag, len(agg)))
		}
		e.held = append(e.held, agg)
		a.armCollect(ctx, round+1, 0)
	}
}

// formGlobal is the top's step: it forms the global model (Alg. 6) and
// disseminates it.
func (a *clusterActor) formGlobal(ctx *simnet.Context, round int, vecs []tensor.Vector, ids []int) {
	e := a.e
	// The global is held to the run's end (engine.held): it is the next
	// Delta reference, maybe the run's final model, and devices merge it
	// (and, at flag level 0, start from it) whenever it reaches them.
	dst := e.take()
	in := step.Input{Round: round, Vecs: vecs, IDs: ids, Dst: dst}
	if e.cfg.Global.IsCBA() {
		e.vote = *e.root.DeriveDecimal("vote-", round)
		in.Rand = &e.vote
		in.Workers, in.Shards = e.workers, e.cfg.ValidationShards
	}
	global, v, _, err := e.st.Aggregate(e.cfg.Global, in)
	if err != nil {
		e.recycle(dst)
		return
	}
	e.ins.globalFormed()
	e.rounds[round].globalReady = ctx.Now()
	e.traceGlobal(round, &v, ctx.Now(), len(global))
	// Dissemination codec hop: encoded against the previous global, then the
	// decoded result becomes the reference for everything formed after it.
	e.transcodeHop(global, e.lastRef)
	e.lastRef = global
	e.held = append(e.held, global)
	e.result.FinalParams = global
	e.evaluate(round, ctx.Now(), global)
	var gm any = msgGlobal{round: round, params: global, formedAt: ctx.Now()}
	for _, ch := range a.children {
		ctx.SendVolume(ch, gm, e.volume(hopGlobal, len(global)))
	}
	if e.cfg.FlagLevel == 0 {
		// The flag is the global, held once above.
		var flag any = msgFlag{round: round + 1, params: global, relSize: 1}
		for _, ch := range a.children {
			ctx.SendVolume(ch, flag, e.volume(hopFlag, len(global)))
		}
	}
	e.completed++
	// A formed global proves round+1 is about to start below: arm its
	// top-level deadline now so a fully-starved next round still resolves.
	a.armCollect(ctx, round+1, 0)
	if e.completed >= e.cfg.Rounds {
		e.done = true
		e.result.Duration = ctx.Now()
	}
}

func (e *engine) evaluate(round int, now simnet.Time, global tensor.Vector) {
	every := e.cfg.EvalEvery
	if every <= 0 {
		every = 1
	}
	if (round+1)%every != 0 && round != e.cfg.Rounds-1 {
		return
	}
	ev := e.models.Get()
	ev.Model.SetParams(global)
	acc := nn.AccuracyWS(ev.Model, ev.WS, e.cfg.TestData)
	e.models.Put(ev)
	e.ins.evalDone(acc)
	e.result.Curve = append(e.result.Curve, RoundAccuracy{Round: round + 1, Time: now, Accuracy: acc})
}

// Run executes the asynchronous pipeline workflow and returns accuracy and
// timing results.
func Run(cfg Config) (res *Result, err error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Alpha == nil {
		cfg.Alpha = AdaptiveAlpha{}
	}
	cfg.Codec = cmp.Or[codec.Codec](cfg.Codec, codec.Identity{})
	if cfg.Latency == nil {
		cfg.Latency = simnet.Fixed(1)
	}
	if cfg.Timing == (Timing{}) {
		cfg.Timing = DefaultTiming()
	}
	root := rng.New(cfg.Seed)
	tree := cfg.Tree
	sim := simnet.New(cfg.Latency, root.Derive("net"))
	sim.Bandwidth = cfg.Bandwidth
	if cfg.Faults.Enabled() {
		sim.Fault = cfg.Faults
	}
	sizes := step.ModelSizes(cfg.Hidden)
	models := step.Store.Pool(sizes)
	sc := models.Get()
	dim := sc.Model.NumParams()
	models.Put(sc)
	// Everyone bootstraps from the initial model, so it is the first Delta
	// reference; each formed global replaces it.
	init := nn.InitParamsInto(step.Store.Take(dim), root.Derive("init"), sizes...)
	e := &engine{
		cfg:     cfg,
		tree:    tree,
		sim:     sim,
		root:    root,
		result:  &Result{},
		alpha:   cfg.Alpha,
		workers: cfg.Workers,
		lastRef: init,
		init:    init,
		models:  models,
		dim:     dim,
		held:    []tensor.Vector{init},
	}
	e.plan = cfg.Faults
	e.faulty = cfg.Faults.Enabled()
	e.backoff = cfg.TimeoutBackoff
	if e.backoff == 0 {
		e.backoff = 2
	}
	e.retries = cfg.TimeoutRetries
	if e.retries == 0 {
		e.retries = 3
	}
	e.ins = newInstruments(cfg.Telemetry, cfg.Codec, len(init))
	e.obs = step.NewObserver(cfg.Telemetry, "pipeline", tree.Depth(), cfg.OnFilter, cfg.Trace)
	e.st = step.NewStepper(e.obs, cfg.Workers, e.models, false)
	e.tr = cfg.Trace
	if cfg.Flight != nil {
		sim.Trace = cfg.Flight.Hook()
	}
	e.cs = codec.NewScratch()
	quorum := cfg.Quorum
	if quorum == 0 {
		quorum = 1
	}
	e.quorumOf = func(size int) int {
		n := int(math.Ceil(quorum * float64(size)))
		if n < 1 {
			n = 1
		}
		if n > size {
			n = size
		}
		return n
	}

	// --- Node id allocation.
	devices := tree.NumDevices()
	e.clusterNode = make([][]simnet.NodeID, tree.Depth())
	next := simnet.NodeID(devices)
	for l := range tree.Clusters {
		e.clusterNode[l] = make([]simnet.NodeID, len(tree.Clusters[l]))
		for i := range tree.Clusters[l] {
			e.clusterNode[l][i] = next
			next++
		}
	}
	e.deviceLeader = make([]simnet.NodeID, devices)
	e.deviceCluster = make([]int, devices)
	bottom := tree.Bottom()
	for i, c := range tree.Clusters[bottom] {
		for _, m := range c.Members {
			e.deviceLeader[m] = e.clusterNode[bottom][i]
			e.deviceCluster[m] = i
		}
	}
	e.arrivals = make([]arrivals, len(tree.Clusters[bottom])*cfg.Rounds)
	for i := range e.arrivals {
		e.arrivals[i] = arrivals{never, never, never}
	}
	e.rounds = make([]roundTimes, cfg.Rounds)
	for i := range e.rounds {
		e.rounds[i] = roundTimes{never, never, never}
	}

	// --- Register actors.
	devActors := make([]*deviceActor, devices)
	e.devs = devActors
	seen := make([]bool, devices*cfg.Rounds)
	for id := 0; id < devices; id++ {
		devActors[id] = &deviceActor{e: e, id: id, curRound: -1, seenGlobal: seen[:cfg.Rounds:cfg.Rounds]}
		seen = seen[cfg.Rounds:]
		if !cfg.Crashed[id] {
			// Crashed devices stay unregistered: the simulator drops their
			// traffic, exactly like a crash-stop node. Every live device
			// starts round 0 from the initial model at t=0 (the bootstrap,
			// OnTimer); a quorum φ < 1 lets their clusters proceed without
			// the crashed ones.
			sim.Register(simnet.NodeID(id), devActors[id])
			sim.AtArg(simnet.NodeID(id), 0, 0)
		}
	}
	var top *clusterActor
	// Every leader's per-round marks, in one slab (next-devices leaders).
	marks := make([]uint8, int(next-simnet.NodeID(devices))*cfg.Rounds)
	for l := 0; l < tree.Depth(); l++ {
		for i, c := range tree.Clusters[l] {
			a := &clusterActor{
				e:        e,
				cluster:  c,
				marks:    marks[:cfg.Rounds:cfg.Rounds],
				isBottom: l == bottom,
				recycles: l == bottom || l+1 != cfg.FlagLevel,
			}
			marks = marks[cfg.Rounds:]
			if l > 0 && l == cfg.FlagLevel {
				a.relSize = float64(tree.LeafCount(l, i)) / float64(devices)
			}
			if l == 0 {
				top = a
			} else {
				p := tree.Parent(l, i)
				a.parent = e.nodeOfCluster(p.Level, p.Index)
			}
			if l == bottom {
				for _, m := range c.Members {
					a.children = append(a.children, simnet.NodeID(m))
				}
			} else {
				for _, ch := range tree.ChildClusters(l, i) {
					a.children = append(a.children, e.nodeOfCluster(l+1, ch.Index))
				}
			}
			sim.Register(e.clusterNode[l][i], a)
		}
	}

	if e.faulty && cfg.CollectTimeout > 0 {
		// Bootstrap the top's round-0 deadline: with every round-0 partial
		// lost, no arrival would ever arm it.
		sim.AtArg(e.clusterNode[0][0], 0, top.timerArg(clArm, 0, 0))
	}
	e.startTraining(tensor.ResolveWorkers(cfg.Workers), devices)
	defer func() {
		e.stopTraining()
		e.giveBack(res)
	}()
	if _, err := sim.Run(0); err != nil {
		return nil, err
	}
	if e.codecErr != nil {
		return nil, e.codecErr
	}
	e.result.CompletedRounds = e.completed
	e.result.StepError = e.obs.Err()
	if !e.done {
		if !e.faulty {
			if e.result.StepError != nil {
				return nil, fmt.Errorf("pipeline: simulation drained after %d/%d rounds: %w", e.completed, cfg.Rounds, e.result.StepError)
			}
			return nil, fmt.Errorf("pipeline: simulation drained after %d/%d rounds", e.completed, cfg.Rounds)
		}
		// Degraded operation under injected faults: the plan starved the
		// protocol of its remaining rounds. The run still terminated (no
		// deadlock) and everything completed so far is reported.
		e.result.Duration = sim.Now()
	}
	e.result.Network = sim.Stats()
	e.ins.network(e.result.Network)
	e.computeTimings()
	if n := len(e.result.Curve); n > 0 {
		e.result.FinalAccuracy = e.result.Curve[n-1].Accuracy
	}
	return e.result, nil
}

// computeTimings derives the per-round σ_w, σ_p, σ_g, σ and ν series from
// the recorded observation points, averaged across bottom clusters.
func (e *engine) computeTimings() {
	nBottom := len(e.arrivals) / e.cfg.Rounds
	var nuSum float64
	var nuCount int
	for round := 0; round < e.cfg.Rounds-1; round++ {
		var sw, sp, sg, sigma float64
		count := 0
		top := e.rounds[round]
		if top.globalReady == never || top.firstPartial == never {
			continue
		}
		sgTop := float64(top.globalReady - top.firstPartial)
		for b := 0; b < nBottom; b++ {
			at, next := e.arrival(b, round), e.arrival(b, round+1)
			if at.first == never || next.flag == never || at.global == never {
				continue
			}
			total := float64(at.global - at.first)
			wait := float64(next.flag - at.first)
			if total <= 0 {
				continue
			}
			if wait > total {
				wait = total
			}
			// The paper's decomposition σ = σ_w + σ_p + σ_g assumes disjoint
			// phases; across clusters the phases can overlap slightly (the
			// top may start collecting before the last flag lands), so the
			// measured top-side σ_g is clipped to the non-waiting residual.
			sgEff := math.Min(sgTop, total-wait)
			p := total - wait - sgEff
			sw += wait
			sp += p
			sg += sgEff
			sigma += total
			count++
		}
		if count == 0 {
			continue
		}
		t := RoundTiming{
			Round:  round,
			SigmaW: sw / float64(count),
			SigmaP: sp / float64(count),
			SigmaG: sg / float64(count),
			Sigma:  sigma / float64(count),
		}
		if t.Sigma > 0 {
			t.Nu = (t.SigmaP + t.SigmaG) / t.Sigma
		}
		e.result.Timings = append(e.result.Timings, t)
		e.ins.roundTiming(t)
		nuSum += t.Nu
		nuCount++
	}
	sort.Slice(e.result.Timings, func(i, j int) bool { return e.result.Timings[i].Round < e.result.Timings[j].Round })
	if nuCount > 0 {
		e.result.MeanNu = nuSum / float64(nuCount)
		e.ins.setMeanNu(e.result.MeanNu)
	}
}
