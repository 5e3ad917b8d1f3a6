package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"abdhfl"
	"abdhfl/internal/aggregate"
	"abdhfl/internal/dataset"
	"abdhfl/internal/experiments"
	"abdhfl/internal/pipeline"
	"abdhfl/internal/rng"
	"abdhfl/internal/simnet"
	"abdhfl/internal/telemetry"
	"abdhfl/internal/tensor"
	"abdhfl/internal/topology"
	"abdhfl/internal/trace"
)

// The replay pass. After the timed windows, every layer of a workload is
// measured from outside: the benchmark calls the layer's exported entry
// points with the inputs and call counts the workload's run implies and
// records a span around every call. It runs at one processor, engines and
// replay alike, so wall time is processor time and a layer's busy time is a
// true share of the run. What no replayed layer accounts for is the engine's
// unattributed share: scheduling, copying, payload packing, collect waits.

// replayCtx carries one workload's replay pass and collects its per-layer
// metrics.
type replayCtx struct {
	sp     *spec
	m      *measurement
	p      plan
	vals   map[string]float64
	shares map[string]float64
	flags  []string
	spans  []span
}

func newReplayCtx(sp *spec, m *measurement) *replayCtx {
	return &replayCtx{sp: sp, m: m, p: m.p, vals: map[string]float64{}, shares: map[string]float64{}}
}

func (rc *replayCtx) set(name string, v float64) { rc.vals[name] = v }

func (rc *replayCtx) flag(format string, args ...any) {
	rc.flags = append(rc.flags, fmt.Sprintf("%s: ", rc.m.w.name())+fmt.Sprintf(format, args...))
}

// absent reports 0 for every metric of the named layers: the driver wants
// every per-layer metric on every workload, and a workload that does not run
// a layer has nothing but zero to say about it.
func (rc *replayCtx) absent(layers ...string) {
	for _, m := range rc.sp.PerLayer {
		for _, l := range layers {
			if layerOf(m.Name) == l {
				if _, ok := rc.vals[m.Name]; !ok {
					rc.vals[m.Name] = 0
				}
			}
		}
	}
}

func (rc *replayCtx) writeTrace() error {
	return writeJSONL(filepath.Join(rc.sp.outDir(), "trace_"+rc.m.w.name()+".jsonl"), rc.spans)
}

// timed reports the per-engine numbers that come from the timed windows, not
// from the replay: the run-time tail, mallocs per run, and how far the
// windows disagreed.
func (rc *replayCtx) timed(tailName, allocsName string) {
	_, tail := tailPercentile(rc.m.allRuns())
	rc.set(tailName, tail)
	if allocsName != "" {
		rc.set(allocsName, median(rc.m.perWindow(func(w window) float64 {
			return float64(w.mallocs) / float64(len(w.runs))
		})))
	}
	rc.set("harness.window_spread", spread(rc.m.perWindow(func(w window) float64 { return median(w.runs) })))
}

// attribution is what attribute measured: the engine's run time and each
// span name's busy time per run, both at one processor.
type attribution struct {
	runS float64
	busy map[string]float64
}

// attribute times engine and replay at one processor, refRuns times each,
// the replay once with span recording and once without per round. Busy time
// per span name is the median over the recorded replays. The harness's own
// overhead is the gap between the fastest recorded and the fastest unrecorded
// replay: the two do the same deterministic work, so the fastest of each is
// the pair least disturbed by the machine.
func (rc *replayCtx) attribute(engine func() error, replay func(rec *recorder) error) (attribution, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rec := newRecorder()
	var refs, on, off []float64
	clock := func(f func() error) (float64, error) {
		t0 := time.Now()
		err := f()
		return time.Since(t0).Seconds(), err
	}
	for i := 0; i < rc.p.refRuns; i++ {
		d, err := clock(engine)
		if err != nil {
			return attribution{}, fmt.Errorf("engine run at one processor: %w", err)
		}
		refs = append(refs, d)
		rec.run = i + 1
		if d, err = clock(func() error { return replay(rec) }); err != nil {
			return attribution{}, err
		}
		on = append(on, d)
		if d, err = clock(func() error { return replay(nil) }); err != nil {
			return attribution{}, err
		}
		off = append(off, d)
	}
	rc.spans = append(rc.spans, rec.spans...)
	// Every recorded replay makes the same calls, so the first names them all.
	perRun := busyByName(rec.spans)
	at := attribution{runS: median(refs), busy: map[string]float64{}}
	for name := range perRun[1] {
		var xs []float64
		for _, byName := range perRun {
			xs = append(xs, byName[name])
		}
		at.busy[name] = median(xs)
	}
	overhead := ratio(slices.Min(on)-slices.Min(off), slices.Min(off))
	rc.set("harness.span_overhead_share", overhead)
	if overhead > 0.02 {
		rc.flag("harness.span_overhead_share %.4f is over 0.02", overhead)
	}
	return at, nil
}

// oneProcessor runs f with GOMAXPROCS at 1.
func oneProcessor(f func() error) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	return f()
}

// layerBusy sums an attribution's span names into layers.
func (at attribution) layerBusy() map[string]float64 {
	out := map[string]float64{}
	for name, b := range at.busy {
		out[layerOf(name)] += b
	}
	return out
}

// finish turns layer busy times into shares of the run and the engine's
// unattributed share, which is flagged outside [−0.05, 0.40]: below, the
// replay does work the engine does not; above, most of the run is
// unexplained.
func (rc *replayCtx) finish(unattributedName string, runS float64, layers map[string]float64) {
	for l, b := range layers {
		rc.shares[l] = ratio(b, runS)
	}
	un := unattributedShare(layers, runS)
	rc.set(unattributedName, un)
	if un < -0.05 || un > 0.40 {
		rc.flag("%s %.3f is outside [-0.05, 0.40]", unattributedName, un)
	}
}

// ---- layers shared by the learning workloads -----------------------------

// learnLayers reports nn, aggregate, consensus and codec from one replayed
// run's counts and busy times.
func (rc *replayCtx) learnLayers(c replayCounts, busy map[string]float64) {
	rc.set("nn.train_busy_s", busy["nn.train"])
	rc.set("nn.train_calls", float64(c.trainCalls))
	rc.set("nn.train_samples_per_s", ratio(float64(c.trainSamples), busy["nn.train"]))
	rc.set("nn.eval_busy_s", busy["nn.eval"])
	rc.set("nn.eval_calls", float64(c.validatorCalls+c.evalCalls))
	rc.set("nn.eval_samples_per_s", ratio(float64(c.evalSamples), busy["nn.eval"]))

	rc.set("aggregate.busy_s", busy["aggregate"])
	rc.set("aggregate.calls", float64(c.aggCalls))
	rc.set("aggregate.us_per_call", 1e6*ratio(busy["aggregate"], float64(c.aggCalls)))
	rc.set("aggregate.kept_ratio", ratio(float64(c.aggKept), float64(c.aggInputs)))

	rc.set("consensus.busy_s", busy["consensus"])
	rc.set("consensus.agree_ms_p50", median(c.agreeMS))
	rc.set("consensus.messages_per_instance", ratio(float64(c.agreeMessages), float64(c.agreeCalls)))
	rc.set("consensus.rounds_per_instance", ratio(float64(c.coinRounds), float64(c.agreeCalls)))
	rc.set("consensus.excluded_ratio", ratio(float64(c.excluded), float64(c.proposals)))
}

// buildLayers times what abdhfl.Build does for the scenario, call by call:
// the tree, the three generated pools, the two partitions. These layers move
// setup_s, not a run.
func (rc *replayCtx) buildLayers(s abdhfl.Scenario) error {
	s = s.WithDefaults()
	rec := newRecorder()
	reps := 3
	if rc.p.quick {
		reps = 1
	}
	clusters := 0
	for i := 0; i < reps; i++ {
		rec.run = -(i + 1) // negative: not part of any replayed run
		r := rng.New(s.Seed)
		rec.begin("topology.build")
		tree, err := topology.NewECSM(s.Levels, s.ClusterSize, s.TopNodes)
		rec.end()
		if err != nil {
			return err
		}
		clusters = 0
		for _, level := range tree.Clusters {
			clusters += len(level)
		}
		devices := tree.NumDevices()
		gen := dataset.DefaultGen()
		rec.begin("dataset.generate")
		pool := dataset.Generate(r.Derive("train"), devices*s.SamplesPerClient, gen)
		dataset.Generate(r.Derive("test"), s.TestSamples, gen)
		val := dataset.Generate(r.Derive("validation"), s.ValidationSamples, gen)
		rec.end()
		rec.begin("dataset.partition")
		dataset.PartitionIID(r.Derive("split"), pool, devices)
		dataset.PartitionIID(r.Derive("valsplit"), val, tree.Top().Size())
		rec.end()
	}
	rc.spans = append(rc.spans, rec.spans...)
	med := func(name string) float64 {
		var xs []float64
		for _, byName := range busyByName(rec.spans) {
			xs = append(xs, byName[name])
		}
		return median(xs)
	}
	rc.set("topology.build_s", med("topology.build"))
	rc.set("topology.clusters", float64(clusters))
	rc.set("dataset.generate_s", med("dataset.generate"))
	rc.set("dataset.partition_s", med("dataset.partition"))
	return nil
}

// tensorKernels calls the three training kernels directly at the 64-32-10
// model's shapes: one sample's worth of each per call — both layers'
// products forward, the one transposed product backward, both layers' rank-1
// updates. The hidden-layer vectors are half zeros, as after a ReLU, because
// the kernels skip zero rows. kernel_share is the part of nn.train_busy_s
// those calls explain.
func (rc *replayCtx) tensorKernels(trainSamples int, trainBusy float64) {
	r := rng.New(rc.p.seed)
	w1, w2 := tensor.NewMatrix(32, dataset.Dim), tensor.NewMatrix(dataset.NumClasses, 32)
	fill := func(v tensor.Vector, halfZero bool) tensor.Vector {
		for i := range v {
			if !halfZero || i%2 == 0 {
				v[i] = r.NormFloat64()
			}
		}
		return v
	}
	fill(tensor.Vector(w1.Data), false)
	fill(tensor.Vector(w2.Data), false)
	x := fill(tensor.NewVector(dataset.Dim), false)
	h := fill(tensor.NewVector(32), true)
	dh := fill(tensor.NewVector(32), true)
	do := fill(tensor.NewVector(dataset.NumClasses), false)
	z1, z2, back := tensor.NewVector(32), tensor.NewVector(dataset.NumClasses), tensor.NewVector(32)
	g1, g2 := tensor.NewMatrix(32, dataset.Dim), tensor.NewMatrix(dataset.NumClasses, 32)

	// Median of eleven batches: one batch of a few milliseconds is as likely as
	// not to sit on a slow moment of the machine.
	n := rc.p.kernelRounds / 10
	perCall := func(f func()) float64 {
		var batches []float64
		for b := 0; b < 11; b++ {
			t0 := time.Now()
			for i := 0; i < n; i++ {
				f()
			}
			batches = append(batches, float64(time.Since(t0).Nanoseconds())/float64(n))
		}
		return median(batches)
	}
	matvec := perCall(func() { tensor.MatVec(z1, w1, x); tensor.MatVec(z2, w2, h) })
	mattvec := perCall(func() { tensor.MatTVec(back, w2, do) })
	addouter := perCall(func() { tensor.AddOuter(g2, 1, do, h); tensor.AddOuter(g1, 1, dh, x) })
	rc.set("tensor.matvec_ns", matvec)
	rc.set("tensor.mattvec_ns", mattvec)
	rc.set("tensor.addouter_ns", addouter)
	rc.set("tensor.kernel_share", ratio(float64(trainSamples)*(matvec+mattvec+addouter)/1e9, trainBusy))
}

// ---- simnet relay --------------------------------------------------------

// relay is a ring of nodes that keeps a fixed number of events pending on a
// simnet until an event budget is spent: every handled event schedules one
// successor, a message delivery or a timer in the engine's proportion. It is
// the queue's work — insert, pop, dispatch — with empty handlers.
type relay struct {
	nodes    int
	left     int     // successors still to schedule
	msgShare float64 // fraction of events that are message deliveries
	acc      float64
	k        int
	timer    simnet.TimerFunc
}

func (r *relay) OnMessage(ctx *simnet.Context, _ simnet.Message) { r.step(ctx) }

func (r *relay) step(ctx *simnet.Context) {
	if r.left <= 0 {
		return
	}
	r.left--
	r.k++
	r.acc += r.msgShare
	if r.acc >= 1 {
		r.acc--
		ctx.Send(simnet.NodeID(r.k%r.nodes), r.k)
		return
	}
	ctx.After(simnet.Time(40+r.k*37%170), r.timer)
}

// relayLoad is the queue work of one engine run, as the engine reports it.
type relayLoad struct {
	latency         simnet.LatencyModel
	shards, workers int
	nodes           int // handlers registered, ids 0..nodes-1 in order, as the engines register theirs
	events          int // events processed
	messages        int // of which message deliveries; the rest are timers
	peak            int // events pending at once
}

// simnetRelay registers the load's nodes and carries its events, each part
// inside a span, and returns the wall seconds of sim.Run alone.
func simnetRelay(rec *recorder, l relayLoad) (float64, error) {
	width := max(1, min(l.peak, l.events))
	sim := simnet.NewSharded(l.latency, rng.New(1), l.shards, l.workers)
	r := &relay{
		nodes:    l.nodes,
		left:     l.events - width,
		msgShare: ratio(float64(l.messages), float64(l.events)),
	}
	r.timer = r.step
	sim.MaxEvents = l.events + 1
	rec.begin("simnet.register")
	for i := 0; i < r.nodes; i++ {
		sim.Register(simnet.NodeID(i), r)
	}
	rec.end()
	for i := 0; i < width; i++ {
		sim.ScheduleAt(simnet.Time(i%200), simnet.NodeID(i%r.nodes), r.timer)
	}
	rec.begin("simnet.run")
	t0 := time.Now()
	got, err := sim.Run(0)
	d := time.Since(t0).Seconds()
	rec.end()
	if err != nil {
		return 0, err
	}
	if got != l.events {
		return 0, fmt.Errorf("simnet relay carried %d events, want %d", got, l.events)
	}
	return d, nil
}

// simnetLayer reports the queue from the replayed spans and, outside any
// span, carries the load once more at the engine's shard count and once at
// one shard for shards_speedup.
func (rc *replayCtx) simnetLayer(busy map[string]float64, l relayLoad) error {
	rc.set("simnet.busy_s", busy["simnet.register"]+busy["simnet.run"])
	rc.set("simnet.register_s", busy["simnet.register"])
	rc.set("simnet.events_per_s", ratio(float64(l.events), busy["simnet.run"]))
	rc.set("simnet.events_per_run", float64(l.events))
	rc.set("simnet.peak_queue", float64(l.peak))
	sharded, err := simnetRelay(nil, l)
	if err != nil {
		return err
	}
	l.shards, l.workers = 1, 1
	single, err := simnetRelay(nil, l)
	if err != nil {
		return err
	}
	rc.set("simnet.shards_speedup", ratio(single, sharded))
	return nil
}

// ---- table5_cell ---------------------------------------------------------

func (w *table5Cell) replay(rc *replayCtx) error {
	seed := rc.p.seed
	// The engine's own counts for the run being replayed.
	filters := 0
	w.mat.OnFilter = func(telemetry.FilterDecision) { filters++ }
	ref, err := w.mat.RunHFL(seed)
	w.mat.OnFilter = nil
	if err != nil {
		return err
	}

	h := newHFLReplay(w.mat, false, false)
	var final tensor.Vector
	at, err := rc.attribute(
		func() error { _, err := w.mat.RunHFL(seed); return err },
		func(rec *recorder) (err error) {
			h.counts = replayCounts{}
			final, err = h.run(rec, seed)
			return err
		})
	if err != nil {
		return err
	}
	c := h.counts
	switch {
	case paramHash(final) != paramHash(ref.FinalParams):
		return fmt.Errorf("replay's final model differs from RunHFL's")
	case c.trainCalls != ref.TrainerActivations:
		return fmt.Errorf("replay trained %d times, engine %d", c.trainCalls, ref.TrainerActivations)
	case c.aggCalls+c.agreeCalls != filters:
		return fmt.Errorf("replay aggregated %d times, engine's OnFilter fired %d times", c.aggCalls+c.agreeCalls, filters)
	case c.modelTransfers != ref.Comm.ModelTransfers || c.scalarMessages != ref.Comm.ScalarMessages:
		return fmt.Errorf("replay counted %d model transfers and %d scalar messages, engine %d and %d",
			c.modelTransfers, c.scalarMessages, ref.Comm.ModelTransfers, ref.Comm.ScalarMessages)
	}

	rc.learnLayers(c, at.busy)
	rc.tensorKernels(c.trainSamples, at.busy["nn.train"])
	if err := rc.buildLayers(w.mat.Scenario); err != nil {
		return err
	}
	rounds := float64(w.mat.Scenario.Rounds)
	rc.set("core.model_transfers_per_round", float64(ref.Comm.ModelTransfers)/rounds)
	rc.set("core.scalar_messages_per_round", float64(ref.Comm.ScalarMessages)/rounds)
	rc.set("core.workers_speedup", ratio(at.runS, rc.m.runP50()))
	rc.timed("core.run_s_tail", "core.allocs_per_run")
	rc.finish("core.unattributed_share", at.runS, at.layerBusy())
	rc.overhead(w.mat, seed)
	rc.absent("codec", "transport", "node", "pipeline", "simnet", "experiments")
	return nil
}

// overhead measures what attaching instrumentation costs a run, from
// outside: the same RunHFL in alternating triples — detached, telemetry
// registry and OnFilter attached, tracer attached — rotated so no arm always
// runs first, at the default processor count. Each share is the median over
// triples of (attached − detached) ÷ detached.
func (rc *replayCtx) overhead(mat *abdhfl.Materials, seed uint64) {
	defer func() { mat.Telemetry, mat.OnFilter, mat.Trace = nil, nil, nil }()
	spans := 0
	arms := []func(){
		func() {},
		func() {
			mat.Telemetry = telemetry.New()
			mat.OnFilter = func(telemetry.FilterDecision) {}
		},
		func() { mat.Trace = trace.NewTracer(8, 0) },
	}
	var tele, trc []float64
	for i := 0; i < rc.p.triples; i++ {
		var d [3]float64
		for j := 0; j < 3; j++ {
			arm := (i + j) % 3
			mat.Telemetry, mat.OnFilter, mat.Trace = nil, nil, nil
			arms[arm]()
			t0 := time.Now()
			if _, err := mat.RunHFL(seed); err != nil {
				rc.m.fail(fmt.Errorf("instrumented run: %w", err))
			}
			d[arm] = time.Since(t0).Seconds()
			if arm == 2 {
				spans = mat.Trace.Len()
			}
		}
		tele = append(tele, (d[1]-d[0])/d[0])
		trc = append(trc, (d[2]-d[0])/d[0])
	}
	rc.set("telemetry.overhead_share", median(tele))
	rc.set("trace.overhead_share", median(trc))
	rc.set("trace.spans_per_run", float64(spans))
	for _, name := range []string{"telemetry.overhead_share", "trace.overhead_share"} {
		if rc.vals[name] > 0.02 {
			rc.flag("%s %.4f is over the 0.02 budget", name, rc.vals[name])
		}
	}
}

// ---- pipeline_round ------------------------------------------------------

func (w *pipelineRound) replay(rc *replayCtx) error {
	seed := rc.p.seed
	run := func() (*pipeline.Result, error) {
		return w.mat.RunPipeline(seed, pipelineFlagLevel, pipeline.DefaultTiming())
	}
	// The engine's own counts: filter callbacks, train spans, messages.
	filters := 0
	w.mat.OnFilter = func(telemetry.FilterDecision) { filters++ }
	w.mat.Trace = trace.NewTracer(1, 0)
	ref, err := run()
	tr := w.mat.Trace
	w.mat.OnFilter, w.mat.Trace = nil, nil
	if err != nil {
		return err
	}
	trains := 0
	for _, s := range tr.Spans() {
		if s.Name == "train" {
			trains++
		}
	}

	// The engine's queue: one shard, a node per device and per cluster, and —
	// all simnet.Stats counts — the messages it delivered.
	tree := w.mat.Tree
	load := relayLoad{
		latency: simnet.Fixed(1), shards: 1, workers: 1, nodes: tree.NumDevices(),
		events: ref.Network.Messages, messages: ref.Network.Messages, peak: ref.Network.PeakQueue,
	}
	for _, level := range tree.Clusters {
		load.nodes += len(level)
	}

	// The asynchronous engine makes the calls of a round engine on the same
	// tree — every device trains every round, every cluster aggregates, the
	// top votes, the global is scored every round — under another schedule,
	// plus stale-global merges the replay leaves to the unattributed share.
	h := newHFLReplay(w.mat, false, true)
	at, err := rc.attribute(
		func() error { _, err := run(); return err },
		func(rec *recorder) error {
			h.counts = replayCounts{}
			if _, err := h.run(rec, seed); err != nil {
				return err
			}
			_, err := simnetRelay(rec, load)
			return err
		})
	if err != nil {
		return err
	}
	c := h.counts
	switch {
	case tr.Dropped() != 0:
		return fmt.Errorf("reference tracer dropped %d spans", tr.Dropped())
	case c.trainCalls != trains:
		return fmt.Errorf("replay trained %d times, engine's trace has %d train spans", c.trainCalls, trains)
	case c.aggCalls+c.agreeCalls != filters:
		return fmt.Errorf("replay aggregated %d times, engine's OnFilter fired %d times", c.aggCalls+c.agreeCalls, filters)
	case c.evalCalls != len(ref.Curve):
		return fmt.Errorf("replay evaluated %d times, engine %d", c.evalCalls, len(ref.Curve))
	}

	rc.learnLayers(c, at.busy)
	rc.tensorKernels(c.trainSamples, at.busy["nn.train"])
	if err := rc.buildLayers(w.mat.Scenario); err != nil {
		return err
	}
	if err := rc.simnetLayer(at.busy, load); err != nil {
		return err
	}
	rounds := float64(ref.CompletedRounds)
	rc.set("pipeline.mean_nu", ref.MeanNu)
	rc.set("pipeline.virtual_ms_per_round", float64(ref.Duration)/rounds)
	rc.set("pipeline.messages_per_round", float64(ref.Network.Messages)/rounds)
	rc.set("pipeline.merged_globals", float64(ref.MergedGlobals))
	rc.timed("pipeline.run_s_tail", "pipeline.allocs_per_run")
	rc.finish("pipeline.unattributed_share", at.runS, at.layerBusy())
	rc.absent("codec", "transport", "node", "core", "experiments", "telemetry", "trace")
	return nil
}

// ---- scale_cell ----------------------------------------------------------

func (w *scaleCell) replay(rc *replayCtx) error {
	ref := w.last
	if ref == nil {
		return fmt.Errorf("no timed run to replay")
	}
	o := w.opts
	agg, err := aggregate.ByName(o.Rule)
	if err != nil {
		return err
	}
	// RunScale's latency model and default fold workers; one node per cluster.
	load := relayLoad{
		latency: simnet.Uniform{Min: 1, Max: 15}, shards: o.Shards, workers: 4, nodes: ref.Clusters,
		events: ref.Events, messages: ref.Net.Messages, peak: ref.Net.PeakQueue,
	}
	inputs := scaleInputs(o)
	var c scaleCounts
	at, err := rc.attribute(
		func() error { _, err := experiments.RunScale(o); return err },
		func(rec *recorder) (err error) {
			c, err = scaleReplay(rec, o, load, agg, inputs)
			return err
		})
	if err != nil {
		return err
	}
	// Every event the engine processed, the relay carried (simnetRelay checks
	// its own count against ref.Events); every cluster aggregated once a round.
	if c.clusters != ref.Clusters || c.aggCalls != ref.Clusters*o.Rounds {
		return fmt.Errorf("replay aggregated %d times over %d clusters, engine has %d clusters and %d rounds",
			c.aggCalls, c.clusters, ref.Clusters, o.Rounds)
	}

	rc.set("topology.build_s", at.busy["topology.build"])
	rc.set("topology.clusters", float64(ref.Clusters))
	rc.set("aggregate.busy_s", at.busy["aggregate"])
	rc.set("aggregate.calls", float64(c.aggCalls))
	rc.set("aggregate.us_per_call", 1e6*ratio(at.busy["aggregate"], float64(c.aggCalls)))
	rc.set("aggregate.kept_ratio", ratio(float64(c.kept), float64(c.inputs)))
	if err := rc.simnetLayer(at.busy, load); err != nil {
		return err
	}

	loop := median(w.loops)
	runS := rc.m.runP50()
	bottom := ref.Levels[len(ref.Levels)-1]
	rc.set("experiments.scale_loop_s", loop)
	rc.set("experiments.scale_build_s", runS-loop)
	rc.set("experiments.scale_build_share", ratio(runS-loop, runS))
	rc.set("experiments.scale_buffers_allocated", float64(ref.BuffersAllocated))
	rc.set("experiments.scale_recall_bottom", bottom.Recall())
	rc.set("experiments.scale_precision_bottom", bottom.Precision())
	rc.timed("experiments.scale_run_s_tail", "")
	rc.finish("experiments.scale_unattributed_share", at.runS, at.layerBusy())
	rc.absent("nn", "tensor", "consensus", "codec", "transport", "node", "core", "pipeline", "dataset", "telemetry", "trace")
	return nil
}

// scaleCounts is the work one replayed scale run did.
type scaleCounts struct{ clusters, aggCalls, kept, inputs int }

// scaleReplay makes one scale run's layer calls: the tree build, the queue's
// load, and one aggregation per cluster per round — the cohort at the bottom,
// the child partials above — at the run's dimension.
func scaleReplay(rec *recorder, o experiments.ScaleOptions, load relayLoad, agg aggregate.Aggregator, inputs []tensor.Vector) (scaleCounts, error) {
	var c scaleCounts
	rec.begin("topology.build")
	tree, err := topology.NewECSM(o.Depth, o.Fanout, scaleTopNodes(o))
	rec.end()
	if err != nil {
		return c, err
	}
	if _, err := simnetRelay(rec, load); err != nil {
		return c, err
	}
	scratch := aggregate.NewScratch(1)
	scratch.Audit = &aggregate.FilterAudit{}
	dst := tensor.NewVector(o.Dim)
	var vecs []tensor.Vector
	for lvl, level := range tree.Clusters {
		c.clusters += len(level)
		for ci, cl := range level {
			n := cl.Size()
			if lvl == tree.Bottom() {
				n = o.Cohort
			}
			for round := 0; round < o.Rounds; round++ {
				vecs = vecs[:0]
				for k := 0; k < n; k++ {
					vecs = append(vecs, inputs[(ci+round+k)%len(inputs)])
				}
				rec.begin("aggregate")
				err := agg.AggregateInto(dst, scratch, vecs)
				rec.end()
				if err != nil {
					return c, err
				}
				kept, _, _ := scratch.Audit.Counts()
				c.aggCalls++
				c.kept += kept
				c.inputs += n
			}
		}
	}
	return c, nil
}

// scaleInputs synthesises updates the way the scale engine does — the
// ground-truth direction plus noise, a sign-flipped multiple for the
// Byzantine fraction — enough distinct vectors that no aggregation sees the
// same input set twice in a row.
func scaleInputs(o experiments.ScaleOptions) []tensor.Vector {
	r := rng.New(o.Seed)
	g := tensor.NewVector(o.Dim)
	for j := range g {
		g[j] = r.NormFloat64()
	}
	out := make([]tensor.Vector, 4096)
	for i := range out {
		v := tensor.NewVector(o.Dim)
		byz := r.Float64() < o.Gamma
		for j := range v {
			if byz {
				v[j] = -3*g[j] + 0.1*r.NormFloat64()
			} else {
				v[j] = g[j] + 0.5*r.NormFloat64()
			}
		}
		out[i] = v
	}
	return out
}
