package experiments

import (
	"fmt"
	"math"
	"sync"
	"time"

	"abdhfl/internal/aggregate"
	"abdhfl/internal/metrics"
	"abdhfl/internal/rng"
	"abdhfl/internal/simnet"
	"abdhfl/internal/telemetry"
	"abdhfl/internal/tensor"
	"abdhfl/internal/topology"
)

// ScaleOptions parameterises RunScale: a million-device-class discrete-event
// simulation of one ABD-HFL deployment. Devices are synthetic — a device
// exists only as an id plus derived randomness, also while it is sampled into
// its cluster's cohort and its upload is in flight; its update is filled into
// a value-pass worker's buffer only when the round closes and its cluster's
// values are computed — so the simulated population can exceed the process's
// memory budget for real models by orders of magnitude. The run exercises the
// real machinery everywhere it matters: the simnet event queue carries every
// upload and dissemination, cluster aggregation calls the real robust rules
// with filter auditing, and timing is accounted with the paper's σ quantities
// as streaming aggregates.
//
// A count left at 0 takes its default; a negative one is an error.
type ScaleOptions struct {
	Depth   int     // tree levels (>= 2); 0 -> 3
	Fanout  int     // ECSM cluster size m; 0 -> 8
	Devices int     // minimum device count (top width derived); 0 -> 100_000
	Gamma   float64 // Byzantine device fraction in [0, 1)
	Cohort  int     // trainers sampled per bottom cluster per round; 0 -> 4
	Rounds  int     // global rounds; 0 -> 5
	Dim     int     // synthetic update dimension; 0 -> 16
	Rule    string  // aggregate.ByName rule for every level; "" -> "median"
	// Shards is ignored: the event queue is no longer sharded.
	//
	// Deprecated: kept only because benchmark/workloads.go sets it and a PR
	// that claims a gain may not edit benchmark/. The [benchmark] re-cut
	// (ROADMAP item 1) deletes it.
	Shards int
	Seed   uint64
	// Telemetry, if non-nil, receives queue and σ gauges after the run.
	Telemetry *telemetry.Registry
}

func (o *ScaleOptions) defaults() {
	if o.Depth == 0 {
		o.Depth = 3
	}
	if o.Fanout == 0 {
		o.Fanout = 8
	}
	if o.Devices == 0 {
		o.Devices = 100_000
	}
	if o.Cohort == 0 {
		o.Cohort = 4
	}
	if o.Rounds == 0 {
		o.Rounds = 5
	}
	if o.Dim == 0 {
		o.Dim = 16
	}
	if o.Rule == "" {
		o.Rule = "median"
	}
}

// validate rejects what defaults leaves out of range and returns the top
// cluster's width: the smallest whose subtrees hold at least o.Devices
// leaves. Actors and the device-id slab hold ids as int32s, so a shape whose
// device or cluster count exceeds math.MaxInt32 is rejected before anything
// is built.
func (o *ScaleOptions) validate() (topNodes int, err error) {
	for _, f := range []struct {
		name string
		v    int
	}{{"Fanout", o.Fanout}, {"Devices", o.Devices}, {"Cohort", o.Cohort}, {"Rounds", o.Rounds}, {"Dim", o.Dim}} {
		if f.v < 0 {
			return 0, fmt.Errorf("scale: %s %d < 0", f.name, f.v)
		}
	}
	if o.Depth < 2 {
		return 0, fmt.Errorf("scale: Depth %d < 2", o.Depth)
	}
	if !(o.Gamma >= 0 && o.Gamma < 1) { // a NaN fails every comparison
		return 0, fmt.Errorf("scale: Gamma %v out of [0,1)", o.Gamma)
	}
	const most = math.MaxInt32
	if o.Devices > most {
		return 0, fmt.Errorf("scale: Devices %d > %d", o.Devices, most)
	}
	// One top child's subtree: leaves devices, under clusters.
	leaves, under := 1, 0
	for l := 1; l < o.Depth; l++ {
		under += leaves
		if leaves > most/o.Fanout || under > most {
			return 0, fmt.Errorf("scale: Depth %d and Fanout %d give one top child over %d devices or clusters", o.Depth, o.Fanout, most)
		}
		leaves *= o.Fanout
	}
	topNodes = max((o.Devices+leaves-1)/leaves, 1)
	if n := topNodes * leaves; n > most {
		return 0, fmt.Errorf("scale: Devices %d with Depth %d and Fanout %d build %d devices, over %d", o.Devices, o.Depth, o.Fanout, n, most)
	}
	if n := 1 + topNodes*under; n > most {
		return 0, fmt.Errorf("scale: Devices %d with Depth %d and Fanout %d build %d clusters, over %d", o.Devices, o.Depth, o.Fanout, n, most)
	}
	return topNodes, nil
}

// ScaleResult is the outcome of one scale simulation. Every field except
// Elapsed/DevicesPerSec is a pure function of the options — byte-identical
// across reruns — so result tables stay diffable.
type ScaleResult struct {
	Options  ScaleOptions
	Devices  int // devices actually built (>= Options.Devices)
	Clusters int // total clusters across all levels
	// RelErr is ‖global − g‖/‖g‖ of the final round's global model against
	// the synthetic ground-truth gradient — the scalar the γ sweep watches:
	// robust rules hold it near the honest noise floor until the tolerance
	// bound is crossed.
	RelErr float64
	// Levels[l] scores level l's filter decisions against ground truth
	// (bottom: the device is Byzantine; upper: a strict majority of the
	// child subtree's sampled leaves was).
	Levels []LevelScore
	// Activations counts device-train events; BuffersAllocated counts
	// update vectors materialized: the vectors one bottom aggregation holds,
	// Cohort per value-pass worker whatever the population — counted per
	// worker so that result tables do not depend on the machine.
	Activations      int
	BuffersAllocated int
	Events           int // simnet events processed
	Net              simnet.Stats
	// SigmaW/SigmaP/SigmaG summarize the paper's pipeline timing quantities
	// as streaming aggregates: intra-cluster collection spread, partial
	// ascent latency, and global round duration (virtual ms).
	SigmaW, SigmaP, SigmaG telemetry.StreamSnapshot

	Elapsed time.Duration // wall clock from round 0's cohort draws to the last value pass's end (nondeterministic)
	// DevicesPerSec is simulated device-rounds per wall-clock second:
	// Devices × Rounds / Elapsed. The population counts, not just active
	// trainers — supporting a device cheaply while it idles is the point.
	DevicesPerSec float64
}

// scalePartial is a child cluster's partial reaching its parent leader; the
// child is the message's sender. Being empty, it boxes without allocating.
type scalePartial struct{}

// scaleGlobal is the dissemination broadcast starting the next round.
type scaleGlobal struct{ round int }

// scaleEngine holds the run's state and is the simnet handler of every
// cluster's node, dispatching each event to the actor of the node it fires
// on. The run has two parts. The event loop — the handlers, dispatched
// serially by simnet, so no locking there — decides only when things happen
// and in which order: which devices a cohort samples, in which order their
// uploads land, in which order child partials reach their parent. The value
// pass computes everything else from those recorded orders: every update,
// partial, census and audit score. No event's time or order depends on a
// value, so the split moves nothing.
//
// The top cluster's round-closing event starts its round's pass, which runs
// beside the next round's event loop. The two share no state that either
// writes while the other runs: the pass reads only actor fields fixed at
// build (level, index, off, expect), and its round's slabs, one per round
// parity, which the loop writes again only two rounds on; the loop never
// touches what the pass writes (the workers, topIn, topTruth, global, levels,
// relErr). The next round's close waits for the running pass before it
// starts its own, and runScale waits for the last before it reads a result.
type scaleEngine struct {
	o      ScaleOptions
	tree   *topology.Tree
	sim    *simnet.Sim
	root   *rng.RNG
	agg    aggregate.Aggregator
	actors []scaleActor

	// The slabs an actor's off indexes, those a round writes one per round
	// parity (round & 1): a bottom cluster's sampled devices in landing
	// order, and an upper cluster's children by node id and in the order
	// their partials arrived.
	ids, order [2][]int32
	childIDs   []int32
	// spread[i] is bottom cluster i's collection spread this round, the time
	// from its first upload's landing to its last's, which σ_w observes when
	// the last lands.
	spread []simnet.Time

	g     tensor.Vector // ground-truth gradient direction
	gNorm float64

	// roundRNG is root.DeriveN("round", roundNo), the stream every draw of
	// that round derives from: hashed when the round changes, not once per
	// arrival.
	roundNo  int
	roundRNG rng.RNG

	// The cohort draw and sort buffers belong to the engine, not to each
	// bottom actor: startRound has consumed a draw before it returns, so one
	// set serves them all.
	pick, scratch []int
	landing       []simnet.Time

	// The value pass: the running pass's join; its round's stream and slabs;
	// its workers and their join; the top's inputs — the partials of its
	// children in arrival order, the only partials stored — and their ground
	// truth; and the global model the top forms from them.
	passDone   sync.WaitGroup
	passRNG    rng.RNG
	passIDs    []int32
	passOrder  []int32
	workers    []scaleWorker
	workersEnd sync.WaitGroup
	topIn      []tensor.Vector
	topTruth   []bool
	global     tensor.Vector

	levels                 []LevelScore
	sigmaW, sigmaP, sigmaG telemetry.Stream
	activations            int
	relErr                 float64
	roundsDone             int
	lastGlobalAt           simnet.Time
}

// roundStream returns root.DeriveN("round", round).
func (e *scaleEngine) roundStream(round int) *rng.RNG {
	if round != e.roundNo {
		e.roundNo = round
		e.roundRNG = *e.root.DeriveN("round", uint64(round))
	}
	return &e.roundRNG
}

// isByz derives device d's Byzantine flag from the placement stream — no
// per-device map, so the predicate costs nothing while devices idle.
func (e *scaleEngine) isByz(d int) bool {
	if e.o.Gamma <= 0 {
		return false
	}
	return e.root.DeriveN("byz", uint64(d)).Float64() < e.o.Gamma
}

// fill writes device d's update into v, drawn from rr, its round's stream:
// the ground-truth gradient plus per-device noise for honest devices, an
// amplified sign-flip for Byzantine ones. Values depend only on (seed, round,
// device), never on when they are filled, into which buffer or by which
// worker.
func (e *scaleEngine) fill(v tensor.Vector, rr *rng.RNG, d int, byz bool) {
	r := rr.DeriveN("upd", uint64(d))
	if byz {
		for j := range v {
			v[j] = -3*e.g[j] + 0.1*r.NormFloat64()
		}
		return
	}
	for j := range v {
		v[j] = e.g[j] + 0.5*r.NormFloat64()
	}
}

// scaleActor simulates one cluster, tree.Clusters[level][index]: the bottom
// level collects its sampled cohort's uploads; upper levels collect child
// partials. It holds only int32 counts and offsets — its members are the
// tree's, its lists are cut from the engine's slabs, its values are computed
// by the value pass — so a cluster costs 28 bytes while the run lasts.
type scaleActor struct {
	level, index int32
	parent       int32 // node id; unused at the top
	expect       int32 // inputs per round (cohort size or child count)
	round        int32
	// off locates the cluster's lists in its round's parity p: at the bottom
	// the sampled devices in landing order, ids[p][off:off+expect]; above it
	// the children by node id, childIDs[off:off+expect], and this round's got
	// children in the order their partials arrived, order[p][off:off+got].
	off, got int32
}

// OnTimer is the last upload of a bottom cluster's cohort landing.
func (e *scaleEngine) OnTimer(ctx *simnet.Context, _ int) {
	e.onArrival(ctx, &e.actors[ctx.Self()])
}

func (e *scaleEngine) OnMessage(ctx *simnet.Context, msg simnet.Message) {
	a := &e.actors[ctx.Self()]
	switch m := msg.Payload.(type) {
	case scalePartial:
		e.onPartial(ctx, a, msg)
	case scaleGlobal:
		e.onGlobal(ctx, a, m)
	default:
		panic(fmt.Sprintf("scale: unexpected payload %T", msg.Payload))
	}
}

// startRound samples bottom cluster a's cohort for round at time now, draws
// when each sampled device's upload lands (local training time plus uplink),
// records the cohort in landing order and its collection spread, and returns
// when the last upload lands: the one event the cohort costs the queue.
func (e *scaleEngine) startRound(a *scaleActor, round int, now simnet.Time) simnet.Time {
	a.round = int32(round)
	rr := e.roundStream(round)
	members := e.tree.Clusters[a.level][a.index].Members
	pick := e.pick[:a.expect]
	if int(a.expect) >= len(members) {
		for i := range pick {
			pick[i] = i
		}
	} else {
		rr.DeriveN("cohort", uint64(a.index)).ChoiceInto(pick, len(members), e.scratch)
	}
	ids, land := e.ids[round&1][a.off:a.off+a.expect], e.landing[:a.expect]
	for k, mi := range pick {
		d := members[mi]
		dr := rr.DeriveN("dev", uint64(d))
		// Local training duration plus uplink latency, virtual ms. Drawn
		// from the device's own derived stream so landing times are
		// independent of scheduling.
		at := now + simnet.Time(40+160*dr.Float64()+1+9*dr.Float64())
		// Insert in landing order, a tie after the earlier pick: the order
		// the queue's (at, seq) gave when every upload was armed at once,
		// in pick order.
		for ; k > 0 && land[k-1] > at; k-- {
			land[k], ids[k] = land[k-1], ids[k-1]
		}
		land[k], ids[k] = at, int32(d)
	}
	last := land[len(land)-1]
	e.spread[a.index] = last - land[0]
	return last
}

// onArrival is the last sampled upload landing at bottom cluster a's leader:
// the cohort is collected, and the partial it stands for goes up.
func (e *scaleEngine) onArrival(ctx *simnet.Context, a *scaleActor) {
	e.sigmaW.Observe(float64(e.spread[a.index]))
	e.activations += int(a.expect)
	ctx.SendVolume(simnet.NodeID(a.parent), scalePartial{}, int64(e.o.Dim))
}

// onPartial collects one child cluster's partial model at upper cluster a by
// recording the child's place in the arrival order. The child's round stays
// as it is until its next round, which starts only after the round closes.
func (e *scaleEngine) onPartial(ctx *simnet.Context, a *scaleActor, msg simnet.Message) {
	if c := &e.actors[msg.From]; c.round != a.round {
		panic(fmt.Sprintf("scale: cluster (%d,%d) got round %d partial during round %d",
			a.level, a.index, c.round, a.round))
	}
	e.sigmaP.Observe(float64(msg.At - msg.SentAt))
	e.order[a.round&1][a.off+a.got] = int32(msg.From)
	if a.got++; a.got < a.expect {
		return
	}
	if a.level > 0 {
		ctx.SendVolume(simnet.NodeID(a.parent), scalePartial{}, int64(e.o.Dim))
		return
	}
	// Top of the tree: every order of the round is recorded, so its values
	// can be computed and the global model for this round is formed, beside
	// the next round.
	e.startPass(int(a.round))
	now := ctx.Now()
	e.sigmaG.Observe(float64(now - e.lastGlobalAt))
	e.lastGlobalAt = now
	e.roundsDone++
	if e.roundsDone < e.o.Rounds {
		a.round++
		e.disseminate(ctx, a, int(a.round))
	}
}

// onGlobal forwards the dissemination broadcast down the tree; bottom
// clusters start the next round on receipt.
func (e *scaleEngine) onGlobal(ctx *simnet.Context, a *scaleActor, m scaleGlobal) {
	if int(a.level) < e.tree.Bottom() {
		e.disseminate(ctx, a, m.round)
		a.round = int32(m.round)
		return
	}
	ctx.AtArg(e.startRound(a, m.round, ctx.Now()), 0)
}

// disseminate sends round's global to every child of a, which starts a's
// next child order.
func (e *scaleEngine) disseminate(ctx *simnet.Context, a *scaleActor, round int) {
	a.got = 0
	var m any = scaleGlobal{round: round} // boxed once, not once per child
	for _, id := range e.childIDs[a.off : a.off+a.expect] {
		ctx.SendVolume(simnet.NodeID(id), m, int64(e.o.Dim))
	}
}

// scaleWorker is one value-pass worker's state. Every part of it is cut from
// a slab shared by all workers; what a worker allocates on its own is its
// goroutine each round and its scratch's growth (see scalePassMaxWorkers).
type scaleWorker struct {
	scr   aggregate.Scratch
	audit aggregate.FilterAudit
	// in[l] and truth[l], for each level l below the top, hold the inputs of
	// the one level-l cluster the worker computes at a time and their ground
	// truth: at the bottom the cohort's updates, above it the child
	// partials, each written into its slot as its subtree is computed.
	in    [][]tensor.Vector
	truth [][]bool
	// levels[l] scores this worker's level-l filter decisions of the pass;
	// valuePass merges it into the engine's and clears it.
	levels []LevelScore
}

// cut returns the first n elements of *s, capacity n, and moves *s past them.
func cut[T any](s *[]T, n int) []T {
	v := (*s)[:n:n]
	*s = (*s)[n:]
	return v
}

// newPass cuts the value pass's state for w workers from one slab per kind.
// A worker holds the inputs of one cluster per level below the top: fan
// child partials at an upper level, the cohort's updates at the bottom. The
// top's inputs are the engine's; worker 0, which aggregates them, gets an
// audit wide enough for them.
func (e *scaleEngine) newPass(w, fan, top int) {
	depth, dim, cohort := e.tree.Depth(), e.o.Dim, e.o.Cohort
	per := (depth-2)*fan + cohort // input vectors per worker
	vecs := make([]tensor.Vector, w*per+top)
	truth := make([]bool, w*per+top)
	vals := make([]float64, (w*per+top+1)*dim)
	ins := make([][]tensor.Vector, w*depth)
	truths := make([][]bool, w*depth)
	levels := make([]LevelScore, w*depth)
	// An audit reuses buffers whose capacity suffices: cut at the widest
	// cluster a worker aggregates, they never grow.
	wide := max(fan, top)
	decisions := make([]aggregate.Decision, (w-1)*fan+wide)
	weights := make([]float64, 2*((w-1)*fan+wide))
	rows := func(n int) []tensor.Vector {
		v := cut(&vecs, n)
		for k := range v {
			v[k] = cut(&vals, dim)
		}
		return v
	}
	e.global = cut(&vals, dim)
	e.topIn, e.topTruth = rows(top), cut(&truth, top)
	e.workers = make([]scaleWorker, w)
	for i := range e.workers {
		wk := &e.workers[i]
		wk.scr.Workers = 1
		wk.scr.Audit = &wk.audit
		n := fan
		if i == 0 {
			n = wide
		}
		wk.audit.Decisions = cut(&decisions, n)[:0]
		wk.audit.Weights = cut(&weights, n)[:0]
		wk.audit.TrimFrac = cut(&weights, n)[:0]
		wk.in, wk.truth = cut(&ins, depth), cut(&truths, depth)
		for l := 1; l < depth; l++ {
			n := fan
			if l == depth-1 {
				n = cohort
			}
			wk.in[l], wk.truth[l] = rows(n), cut(&truth, n)
		}
		wk.levels = cut(&levels, depth)
	}
}

// startPass waits for the running value pass, then hands round's stream and
// slabs to a new one, which runs beside the event loop.
func (e *scaleEngine) startPass(round int) {
	e.passDone.Wait()
	e.passRNG = *e.roundStream(round)
	e.passIDs, e.passOrder = e.ids[round&1], e.order[round&1]
	e.passDone.Add(1)
	go e.valuePass()
}

// valuePass computes the values of the round startPass handed it across
// len(e.workers) workers, worker 0 on its own goroutine. Each worker takes a
// contiguous share of the top's children, in the order their partials
// arrived, and computes each child's subtree depth-first into the top's
// inputs; after the one barrier, worker 0 aggregates the top. A cluster's
// values depend only on (seed, round, device) and the recorded orders, each
// subtree writes only its worker's buffers and its own top input, and the
// audit scores are integer sums: the result is bit-identical for every
// worker count.
func (e *scaleEngine) valuePass() {
	defer e.passDone.Done()
	top := &e.actors[0]
	order := e.passOrder[top.off : top.off+top.expect]
	w := len(e.workers)
	e.workersEnd.Add(w - 1)
	for i := 1; i < w; i++ {
		go func() {
			defer e.workersEnd.Done()
			e.passWork(i, order)
		}()
	}
	e.passWork(0, order)
	e.workersEnd.Wait()
	e.aggregate(&e.workers[0], top, e.global, e.topIn, e.topTruth)
	for i := range e.workers {
		for l, s := range e.workers[i].levels {
			t := &e.levels[l]
			t.TP, t.FP, t.FN, t.TN = t.TP+s.TP, t.FP+s.FP, t.FN+s.FN, t.TN+s.TN
		}
		clear(e.workers[i].levels)
	}
	e.relErr = relativeError(e.global, e.g, e.gNorm)
}

// passWork is worker i's part of the pass: the subtrees of its contiguous
// share of the top's children, each into its top input, with the input's
// ground truth — its subtree's sampled leaves were majority-Byzantine (below
// that, the level below is expected to have cleaned the partial).
func (e *scaleEngine) passWork(i int, order []int32) {
	wk, w := &e.workers[i], len(e.workers)
	for k := i * len(order) / w; k < (i+1)*len(order)/w; k++ {
		byz, tot := e.subtree(wk, &e.actors[order[k]], e.topIn[k])
		e.topTruth[k] = 2*byz > tot
	}
}

// subtree computes cluster a's partial into out with worker wk's buffers,
// and returns the Byzantine census of its subtree's sampled leaves. Its
// inputs, in the recorded order, are at the bottom each sampled device's
// update, filled here, and above it each child's partial, computed
// depth-first just before a aggregates it. A round closes only once every
// cluster has all its inputs, so a's lists are expect long.
func (e *scaleEngine) subtree(wk *scaleWorker, a *scaleActor, out tensor.Vector) (byz, tot int) {
	in, truth := wk.in[a.level][:a.expect], wk.truth[a.level][:a.expect]
	if int(a.level) == e.tree.Bottom() {
		for k, d := range e.passIDs[a.off : a.off+a.expect] {
			truth[k] = e.isByz(int(d))
			if truth[k] {
				byz++
			}
			e.fill(in[k], &e.passRNG, int(d), truth[k])
		}
		tot = int(a.expect)
	} else {
		for k, id := range e.passOrder[a.off : a.off+a.expect] {
			b, t := e.subtree(wk, &e.actors[id], in[k])
			truth[k] = 2*b > t
			byz, tot = byz+b, tot+t
		}
	}
	e.aggregate(wk, a, out, in, truth)
	return byz, tot
}

// aggregate writes cluster a's partial of in into out with worker wk's
// scratch and scores the filter audit against the inputs' ground truth.
func (e *scaleEngine) aggregate(wk *scaleWorker, a *scaleActor, out tensor.Vector, in []tensor.Vector, truth []bool) {
	if err := e.agg.AggregateInto(out, &wk.scr, in); err != nil {
		panic(fmt.Sprintf("scale: cluster (%d,%d): %v", a.level, a.index, err))
	}
	s := &wk.levels[a.level]
	for i, d := range wk.audit.Decisions {
		flagged := d != aggregate.DecisionKept
		switch {
		case flagged && truth[i]:
			s.TP++
		case flagged:
			s.FP++
		case truth[i]:
			s.FN++
		default:
			s.TN++
		}
	}
}

func relativeError(got, want tensor.Vector, wantNorm float64) float64 {
	s := 0.0
	for j := range got {
		d := got[j] - want[j]
		s += d * d
	}
	return math.Sqrt(s) / wantNorm
}

// scalePassMaxWorkers caps RunScale's value-pass fan-out. On the scale_cell
// shape the pass is about three quarters of a one-worker run's CPU samples
// (74 %) and the event loop and the build, which stay serial, the rest; a
// round's pass runs beside the next round's loop. Four workers bring the
// pass to about the loop's share, which it overlaps, so eight could take at
// most a further tenth of the run off. Each worker past the first adds six
// to eight objects to the run's 58–62 — its goroutine in each of the two
// rounds, and its scratch's column and count buffers, grown for the cohort
// and again for a child count — so eight workers measure 107 objects, past
// TestRunScaleAllocBudget's 100.
const scalePassMaxWorkers = 4

// RunScale builds the topology, wires one simnet node per cluster, and
// drives Rounds global rounds through the event engine; each round's value
// pass computes the top's children's subtrees depth-first across GOMAXPROCS
// workers, at most scalePassMaxWorkers, beside the next round's event loop.
// On the benchmark's scale_cell shape (100 032 devices, 14 068 clusters, two
// rounds) a call allocates ≈ 4.6 MB, all of it standing state cut from
// slabs: 28 bytes an actor, a 4-byte id per sampled device in each of two
// round-parity slabs, and one partial stored for each of the top's 1 563
// children.
func RunScale(o ScaleOptions) (*ScaleResult, error) {
	return runScale(o, min(tensor.ResolveWorkers(0), scalePassMaxWorkers))
}

// runScale is RunScale with the value pass on the given number of workers
// (>= 1), which moves no result.
func runScale(o ScaleOptions, workers int) (*ScaleResult, error) {
	o.defaults()
	topNodes, err := o.validate()
	if err != nil {
		return nil, err
	}
	agg, err := aggregate.ByName(o.Rule)
	if err != nil {
		return nil, err
	}
	tree, err := topology.NewECSM(o.Depth, o.Fanout, topNodes)
	if err != nil {
		return nil, err
	}
	if o.Cohort > o.Fanout {
		o.Cohort = o.Fanout
	}

	root := rng.New(o.Seed)
	e := &scaleEngine{
		o:       o,
		tree:    tree,
		root:    root,
		agg:     agg,
		levels:  make([]LevelScore, tree.Depth()),
		roundNo: -1,
	}
	for l := range e.levels {
		e.levels[l].Level = l
	}
	// Ground-truth gradient: a fixed random direction of unit-ish scale.
	gr := root.Derive("gradient")
	e.g = tensor.NewVector(o.Dim)
	for j := range e.g {
		e.g[j] = gr.NormFloat64()
	}
	e.gNorm = math.Sqrt(dot(e.g, e.g))
	if e.gNorm == 0 {
		e.gNorm = 1
	}
	devices := tree.NumDevices()

	// One simnet node per cluster, level-major: cluster (l, i) is node
	// base[l] + i. Everything an actor owns is cut from a slab shared by all
	// of them, so the build is a dozen allocations whatever the cluster
	// count, not several per cluster.
	e.sim = simnet.New(simnet.Uniform{Min: 1, Max: 15}, root.Derive("net"))
	base := make([]int, tree.Depth()+1)
	for l, cs := range tree.Clusters {
		base[l+1] = base[l] + len(cs)
	}
	clusters := base[tree.Depth()]
	bottom := tree.Bottom()
	bottoms := len(tree.Clusters[bottom])
	e.actors = make([]scaleActor, clusters)
	actors := e.actors
	sampled, widest := 0, 0 // cohort members per round; largest bottom cluster
	for l := range tree.Clusters {
		for i, c := range tree.Clusters[l] {
			a := &actors[base[l]+i]
			*a = scaleActor{level: int32(l), index: int32(i)}
			if l > 0 {
				// Parents come first in level-major order: count this
				// cluster among its parent's inputs.
				p := tree.Parent(l, i)
				a.parent = int32(base[p.Level] + p.Index)
				actors[a.parent].expect++
			}
			if l == bottom {
				a.expect = int32(min(o.Cohort, c.Size()))
				sampled += int(a.expect)
				widest = max(widest, c.Size())
			}
		}
	}
	// The engine handles every node. Registering the last node first sizes
	// simnet's node table once.
	for id := clusters - 1; id >= 0; id-- {
		e.sim.Register(simnet.NodeID(id), e)
	}
	// Every cluster but the top is one input of its parent. An upper
	// cluster's off first marks the end of its range; visiting the children
	// from the last id down fills each parent's range back to its start.
	ids := make([]int32, 2*sampled)
	order := make([]int32, 2*(clusters-1))
	e.ids = [2][]int32{ids[:sampled], ids[sampled:]}
	e.order = [2][]int32{order[:clusters-1], order[clusters-1:]}
	e.childIDs = make([]int32, clusters-1)
	e.spread = make([]simnet.Time, bottoms)
	var sampledOff, children int32
	fan := o.Cohort // the most inputs one cluster below the top aggregates
	for i := range actors {
		a := &actors[i]
		if int(a.level) == bottom {
			a.off = sampledOff
			sampledOff += a.expect
			continue
		}
		children += a.expect
		a.off = children
		if a.level > 0 {
			fan = max(fan, int(a.expect))
		}
	}
	for id := clusters - 1; id > 0; id-- {
		p := &actors[actors[id].parent]
		p.off--
		e.childIDs[p.off] = int32(id)
	}
	e.pick = make([]int, o.Cohort)
	e.scratch = make([]int, widest)
	e.landing = make([]simnet.Time, o.Cohort)
	top := int(actors[0].expect)
	e.newPass(min(workers, top), fan, top)

	// What can be pending at once bounds the queue, and sizes it once: one
	// event per bottom cluster. A bottom cluster has its last upload, its
	// partial or the next round's global pending, never two of them. An
	// upper cluster's global is pending only before it passes the round on,
	// and its partial only after all its children's have arrived: while
	// either is, its whole subtree is idle. So by induction on subtrees, a
	// subtree never has more events pending than bottom clusters.
	e.sim.Reserve(bottoms)
	// Generous livelock guard: landings + ascents + dissemination per round.
	e.sim.MaxEvents = 8 * o.Rounds * (sampled + 3*clusters + 16)

	// Start round 0 at every bottom cluster, in node order; its cohort draws
	// are the loop's work, so the clock is already running.
	start := time.Now()
	for i := range bottoms {
		id := base[bottom] + i
		e.sim.AtArg(simnet.NodeID(id), e.startRound(&actors[id], 0, 0), 0)
	}
	events, err := e.sim.Run(0)
	e.passDone.Wait() // the last round's value pass
	elapsed := time.Since(start)
	if err != nil {
		return nil, err
	}
	if e.roundsDone != o.Rounds {
		return nil, fmt.Errorf("scale: completed %d of %d rounds (events %d)", e.roundsDone, o.Rounds, events)
	}

	res := &ScaleResult{
		Options:          o,
		Devices:          devices,
		Clusters:         clusters,
		RelErr:           e.relErr,
		Levels:           e.levels,
		Activations:      e.activations,
		BuffersAllocated: o.Cohort,
		Events:           events,
		Net:              e.sim.Stats(),
		SigmaW:           e.sigmaW.Snapshot(),
		SigmaP:           e.sigmaP.Snapshot(),
		SigmaG:           e.sigmaG.Snapshot(),
		Elapsed:          elapsed,
	}
	if elapsed > 0 {
		res.DevicesPerSec = float64(devices) * float64(o.Rounds) / elapsed.Seconds()
	}
	if reg := o.Telemetry; reg != nil {
		reg.Gauge(`abdhfl_scale_devices`).Set(float64(devices))
		reg.Gauge(`abdhfl_scale_peak_queue`).Set(float64(res.Net.PeakQueue))
		reg.Gauge(`abdhfl_scale_rel_err`).Set(res.RelErr)
		reg.Gauge(`abdhfl_scale_sigma_w_mean`).Set(res.SigmaW.Mean)
		reg.Gauge(`abdhfl_scale_sigma_p_mean`).Set(res.SigmaP.Mean)
		reg.Gauge(`abdhfl_scale_sigma_g_mean`).Set(res.SigmaG.Mean)
	}
	return res, nil
}

func dot(a, b tensor.Vector) float64 {
	s := 0.0
	for j := range a {
		s += a[j] * b[j]
	}
	return s
}

// Row renders the deterministic slice of the result as table cells (wall
// clock and devices/sec are excluded so result files stay diffable).
func (r *ScaleResult) Row() []string {
	bottom := r.Levels[len(r.Levels)-1]
	return []string{
		fmt.Sprintf("%d", r.Options.Depth),
		fmt.Sprintf("%d", r.Options.Fanout),
		fmt.Sprintf("%d", r.Devices),
		fmt.Sprintf("%.2f", r.Options.Gamma),
		fmt.Sprintf("%d", r.Options.Cohort),
		r.Options.Rule,
		fmt.Sprintf("%.4f", r.RelErr),
		metrics.Pct(bottom.Precision()),
		metrics.Pct(bottom.Recall()),
		fmt.Sprintf("%d", r.Activations),
		fmt.Sprintf("%d", r.BuffersAllocated),
		fmt.Sprintf("%d", r.Events),
		fmt.Sprintf("%d", r.Net.PeakQueue),
		fmt.Sprintf("%.1f", r.SigmaW.Mean),
		fmt.Sprintf("%.1f", r.SigmaG.Mean),
	}
}

// ScaleTableHeader matches ScaleResult.Row.
func ScaleTableHeader() []string {
	return []string{
		"depth", "m", "devices", "gamma", "cohort", "rule", "rel_err",
		"bottom_prec", "bottom_recall", "activations", "buffers",
		"events", "peak_queue", "sigma_w", "sigma_g",
	}
}
