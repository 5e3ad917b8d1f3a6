package experiments

import (
	"fmt"
	"math"
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
// an engine-owned scratch only when the cohort's last upload lands and the
// cluster aggregates — so the simulated population can exceed the process's
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
	// (ROADMAP item 2) deletes it.
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

// validate rejects what defaults leaves out of range.
func (o *ScaleOptions) validate() error {
	for _, f := range []struct {
		name string
		v    int
	}{{"Fanout", o.Fanout}, {"Devices", o.Devices}, {"Cohort", o.Cohort}, {"Rounds", o.Rounds}, {"Dim", o.Dim}} {
		if f.v < 0 {
			return fmt.Errorf("scale: %s %d < 0", f.name, f.v)
		}
	}
	if o.Depth < 2 {
		return fmt.Errorf("scale: Depth %d < 2", o.Depth)
	}
	if o.Gamma < 0 || o.Gamma >= 1 {
		return fmt.Errorf("scale: Gamma %v out of [0,1)", o.Gamma)
	}
	return nil
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
	// update vectors materialized: the one scratch every bottom cluster
	// fills as it aggregates, Cohort vectors whatever the population.
	Activations      int
	BuffersAllocated int
	Events           int // simnet events processed
	Net              simnet.Stats
	// SigmaW/SigmaP/SigmaG summarize the paper's pipeline timing quantities
	// as streaming aggregates: intra-cluster collection spread, partial
	// ascent latency, and global round duration (virtual ms).
	SigmaW, SigmaP, SigmaG telemetry.StreamSnapshot

	Elapsed time.Duration // wall clock of the event loop (nondeterministic)
	// DevicesPerSec is simulated device-rounds per wall-clock second:
	// Devices × Rounds / Elapsed. The population counts, not just active
	// trainers — supporting a device cheaply while it idles is the point.
	DevicesPerSec float64
}

// scaleGlobal is the dissemination broadcast starting the next round.
type scaleGlobal struct{ round int }

// scaleEngine holds the run-wide state shared by all cluster actors.
// Dispatch is serial (simnet's contract), so no locking anywhere.
type scaleEngine struct {
	o    ScaleOptions
	tree *topology.Tree
	sim  *simnet.Sim
	root *rng.RNG
	agg  aggregate.Aggregator
	scr  *aggregate.Scratch

	nodeOf [][]simnet.NodeID

	g     tensor.Vector // ground-truth gradient direction
	gNorm float64

	// roundRNG is root.DeriveN("round", roundNo), the stream every draw of
	// that round derives from: hashed when the round changes, not once per
	// arrival.
	roundNo  int
	roundRNG rng.RNG

	// The cohort draw buffers, and the updates a bottom cluster aggregates
	// with their ground truth, belong to the engine, not to each of its
	// bottom actors: dispatch is serial, startRound has consumed a draw
	// before it returns and aggregate has read the updates before it
	// returns, so one set serves them all.
	pick, scratch []int
	updates       []tensor.Vector // Cohort vectors cut from one slab
	updateByz     []bool

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

// fill writes device d's round-r update into v: the ground-truth gradient
// plus per-device noise for honest devices, an amplified sign-flip for
// Byzantine ones. Values depend only on (seed, round, device), never on
// when they are filled or into which buffer.
func (e *scaleEngine) fill(v tensor.Vector, round, d int, byz bool) {
	r := e.roundStream(round).DeriveN("upd", uint64(d))
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

// scaleArrival is a sampled device's upload as its leader knows it before
// the cohort aggregates: the device, and when the upload lands.
type scaleArrival struct {
	at     simnet.Time
	device int
}

// scaleActor simulates one cluster: the bottom level collects its sampled
// cohort's uploads and aggregates; upper levels collect child partials.
type scaleActor struct {
	eng          *scaleEngine
	level, index int
	cluster      *topology.Cluster
	parent       simnet.NodeID
	expect       int // inputs per round (cohort size or child count)
	round        int
	partial      tensor.Vector
	// byzSampled/totSampled are the sampled-leaf Byzantine census of the
	// partial this cluster formed last (bottom) or is forming (upper) — the
	// upper-level audit ground truth, read by the parent when the partial
	// lands.
	byzSampled, totSampled int

	// Bottom level: this round's uploads in landing order.
	arrivals []scaleArrival

	// Upper levels: child cluster actors, and this round's child partials
	// with their ground truth.
	childIDs []simnet.NodeID
	vecs     []tensor.Vector
	truth    []bool
}

// OnTimer is an upload landing; the argument is its index in a.arrivals.
func (a *scaleActor) OnTimer(ctx *simnet.Context, i int) { a.onArrival(ctx, i) }

func (a *scaleActor) OnMessage(ctx *simnet.Context, msg simnet.Message) {
	switch m := msg.Payload.(type) {
	case *scaleActor:
		a.onPartial(ctx, msg, m)
	case scaleGlobal:
		a.onGlobal(ctx, m)
	default:
		panic(fmt.Sprintf("scale: unexpected payload %T", msg.Payload))
	}
}

// startRound samples the bottom cluster's cohort, draws each sampled device's
// upload arrival (local training time plus uplink), and arms the earliest:
// a cluster has one arrival on the queue at a time, each arming the next.
func (a *scaleActor) startRound(ctx *simnet.Context, round int) {
	e := a.eng
	a.round = round
	rr := e.roundStream(round)
	pick := e.pick[:a.expect]
	if a.expect >= a.cluster.Size() {
		for i := range pick {
			pick[i] = i
		}
	} else {
		rr.DeriveN("cohort", uint64(a.index)).ChoiceInto(pick, a.cluster.Size(), e.scratch)
	}
	now := ctx.Now()
	arr := a.arrivals[:0]
	for _, mi := range pick {
		d := a.cluster.Members[mi]
		dr := rr.DeriveN("dev", uint64(d))
		// Local training duration plus uplink latency, virtual ms. Drawn
		// from the device's own derived stream so arrival times are
		// independent of scheduling.
		at := now + simnet.Time(40+160*dr.Float64()+1+9*dr.Float64())
		// Insert in landing order, a tie after the earlier pick: the order
		// the queue's (at, seq) gave when every arrival was armed at once,
		// in pick order.
		k := len(arr)
		arr = append(arr, scaleArrival{})
		for ; k > 0 && arr[k-1].at > at; k-- {
			arr[k] = arr[k-1]
		}
		arr[k] = scaleArrival{at: at, device: d}
	}
	a.arrivals = arr
	ctx.AtArg(arr[0].at, 0)
}

// onArrival is upload i landing at the leader. Until the cohort's last
// lands, its devices are only the ids and times in a.arrivals: the next
// arrival is armed and nothing else happens. The last fills every update, in
// landing order, into the engine's scratch and aggregates them.
func (a *scaleActor) onArrival(ctx *simnet.Context, i int) {
	if i++; i < len(a.arrivals) {
		ctx.AtArg(a.arrivals[i].at, i)
		return
	}
	e := a.eng
	n := len(a.arrivals)
	e.sigmaW.Observe(float64(a.arrivals[n-1].at - a.arrivals[0].at))
	vecs, truth := e.updates[:n], e.updateByz[:n]
	a.byzSampled, a.totSampled = 0, n
	for k, up := range a.arrivals {
		truth[k] = e.isByz(up.device)
		if truth[k] {
			a.byzSampled++
		}
		e.fill(vecs[k], a.round, up.device, truth[k])
	}
	e.activations += n
	a.aggregate(ctx, vecs, truth)
}

// onPartial collects one child cluster's partial model at an upper level.
// The payload is the child actor: its partial, round and census stay as they
// are until its next round, which starts only after this cluster aggregates.
func (a *scaleActor) onPartial(ctx *simnet.Context, msg simnet.Message, c *scaleActor) {
	e := a.eng
	if c.round != a.round {
		panic(fmt.Sprintf("scale: cluster (%d,%d) got round %d partial during round %d",
			a.level, a.index, c.round, a.round))
	}
	e.sigmaP.Observe(float64(msg.At - msg.SentAt))
	if len(a.vecs) == 0 {
		// The last round's census went up with the last round's partial.
		a.byzSampled, a.totSampled = 0, 0
	}
	a.vecs = append(a.vecs, c.partial)
	// Upper-level ground truth: the subtree's sampled leaves were
	// majority-Byzantine (below that, the level below is expected to have
	// cleaned the partial).
	a.truth = append(a.truth, 2*c.byzSampled > c.totSampled)
	a.totSampled += c.totSampled
	a.byzSampled += c.byzSampled
	if len(a.vecs) == a.expect {
		a.aggregate(ctx, a.vecs, a.truth)
		a.vecs, a.truth = a.vecs[:0], a.truth[:0]
	}
}

// aggregate runs the robust rule over the round's inputs, scores the filter
// audit against their ground truth, and either ascends the partial or — at
// the top — closes the round and disseminates.
func (a *scaleActor) aggregate(ctx *simnet.Context, vecs []tensor.Vector, truth []bool) {
	e := a.eng
	if err := e.agg.AggregateInto(a.partial, e.scr, vecs); err != nil {
		panic(fmt.Sprintf("scale: cluster (%d,%d): %v", a.level, a.index, err))
	}
	s := &e.levels[a.level]
	for i, d := range e.scr.Audit.Decisions {
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
	if a.level > 0 {
		ctx.SendVolume(a.parent, a, int64(e.o.Dim))
		return
	}
	// Top of the tree: the global model for this round is formed.
	now := ctx.Now()
	e.sigmaG.Observe(float64(now - e.lastGlobalAt))
	e.lastGlobalAt = now
	e.relErr = relativeError(a.partial, e.g, e.gNorm)
	e.roundsDone++
	if e.roundsDone < e.o.Rounds {
		a.round++
		a.disseminate(ctx, a.round)
	}
}

// onGlobal forwards the dissemination broadcast down the tree; bottom
// clusters start the next round on receipt.
func (a *scaleActor) onGlobal(ctx *simnet.Context, m scaleGlobal) {
	if len(a.childIDs) > 0 {
		a.disseminate(ctx, m.round)
		a.round = m.round
		return
	}
	a.startRound(ctx, m.round)
}

func (a *scaleActor) disseminate(ctx *simnet.Context, round int) {
	var m any = scaleGlobal{round: round} // boxed once, not once per child
	for _, id := range a.childIDs {
		ctx.SendVolume(id, m, int64(a.eng.o.Dim))
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

// RunScale builds the topology, wires one simnet actor per cluster, and
// drives Rounds global rounds through the event engine.
func RunScale(o ScaleOptions) (*ScaleResult, error) {
	o.defaults()
	if err := o.validate(); err != nil {
		return nil, err
	}
	agg, err := aggregate.ByName(o.Rule)
	if err != nil {
		return nil, err
	}
	// Top width: smallest top cluster giving at least o.Devices leaves.
	perTop := 1
	for l := 1; l < o.Depth; l++ {
		perTop *= o.Fanout
	}
	topNodes := (o.Devices + perTop - 1) / perTop
	if topNodes < 1 {
		topNodes = 1
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
		scr:     aggregate.NewScratch(1),
		levels:  make([]LevelScore, tree.Depth()),
		roundNo: -1,
	}
	e.scr.Audit = &aggregate.FilterAudit{}
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

	// One simnet node per cluster, level-major. Everything an actor owns is
	// cut from a slab shared by all of them, so the build is a dozen
	// allocations whatever the cluster count, not several per cluster.
	e.sim = simnet.New(simnet.Uniform{Min: 1, Max: 15}, root.Derive("net"))
	e.nodeOf = make([][]simnet.NodeID, tree.Depth())
	next := simnet.NodeID(0)
	for l := range tree.Clusters {
		e.nodeOf[l] = make([]simnet.NodeID, len(tree.Clusters[l]))
		for i := range tree.Clusters[l] {
			e.nodeOf[l][i] = next
			next++
		}
	}
	clusters := int(next)
	bottom := tree.Bottom()
	actors := make([]scaleActor, clusters)
	sampled, widest := 0, 0 // cohort members per round; largest bottom cluster
	for l := range tree.Clusters {
		for i, c := range tree.Clusters[l] {
			a := &actors[e.nodeOf[l][i]]
			*a = scaleActor{eng: e, level: l, index: i, cluster: c}
			if l > 0 {
				// Parents come first in level-major order: count this
				// cluster among its parent's inputs.
				p := tree.Parent(l, i)
				a.parent = e.nodeOf[p.Level][p.Index]
				actors[a.parent].expect++
			}
			if l == bottom {
				a.expect = min(o.Cohort, c.Size())
				sampled += a.expect
				widest = max(widest, c.Size())
			}
		}
	}
	// Registering the last node first sizes simnet's node table once.
	for id := clusters - 1; id >= 0; id-- {
		e.sim.Register(simnet.NodeID(id), &actors[id])
	}
	// Every cluster but the top is one input of its parent.
	partials := make([]float64, clusters*o.Dim)
	arrivals := make([]scaleArrival, sampled)
	vecs := make([]tensor.Vector, clusters-1)
	truth := make([]bool, clusters-1)
	childIDs := make([]simnet.NodeID, clusters-1)
	for i := range actors {
		a := &actors[i]
		a.partial, partials = partials[:o.Dim:o.Dim], partials[o.Dim:]
		if a.level == bottom {
			a.arrivals, arrivals = arrivals[:0:a.expect], arrivals[a.expect:]
			continue
		}
		a.vecs, vecs = vecs[:0:a.expect], vecs[a.expect:]
		a.truth, truth = truth[:0:a.expect], truth[a.expect:]
		a.childIDs, childIDs = childIDs[:0:a.expect], childIDs[a.expect:]
	}
	for id := 1; id < clusters; id++ {
		p := &actors[actors[id].parent]
		p.childIDs = append(p.childIDs, simnet.NodeID(id))
	}
	e.pick = make([]int, o.Cohort)
	e.scratch = make([]int, widest)
	e.updates = make([]tensor.Vector, o.Cohort)
	flat := make([]float64, o.Cohort*o.Dim)
	for i := range e.updates {
		e.updates[i], flat = flat[:o.Dim:o.Dim], flat[o.Dim:]
	}
	e.updateByz = make([]bool, o.Cohort)

	// What can be pending at once bounds the queue, and sizes it once: a
	// bottom cluster has its kick-off, its one armed arrival, its partial or
	// the next round's global pending, never two of them, and a cluster
	// above it one partial or one global — at most one event per cluster.
	e.sim.Reserve(clusters)
	// Generous livelock guard: arrivals + ascents + dissemination per round.
	e.sim.MaxEvents = 8 * o.Rounds * (sampled + 3*clusters + 16)

	// Kick off round 0 at every bottom cluster: one closure, which finds its
	// actor by the node it fires on.
	kickOff := func(ctx *simnet.Context) { actors[ctx.Self()].startRound(ctx, 0) }
	for _, id := range e.nodeOf[bottom] {
		e.sim.ScheduleAt(0, id, kickOff)
	}

	start := time.Now()
	events, err := e.sim.Run(0)
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
		BuffersAllocated: len(e.updates),
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
