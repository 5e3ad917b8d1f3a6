package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"reflect"

	"abdhfl"
	"abdhfl/internal/experiments"
	"abdhfl/internal/node"
	"abdhfl/internal/pipeline"
	"abdhfl/internal/tensor"
	"abdhfl/internal/topology"
)

// engineSeeds is how many engine seeds a workload cycles through: run i
// uses seed + i mod engineSeeds, so every seed repeats and the repeat must
// reproduce the first run's output bit for bit.
const engineSeeds = 8

// workload is one named benchmark workload: a scenario, the engine call a
// user of the library makes on it, and the check of what that call returns.
type workload interface {
	name() string
	// setup materialises the inputs from the data seed. It is what setup_s
	// times, so it does nothing a caller would not do before the first run.
	setup(seed uint64) error
	// run makes one engine call with the given engine seed and checks its
	// output; a non-nil error is a failed run.
	run(engineSeed uint64) error
	// deviceRounds is devices × rounds of one run.
	deviceRounds() int
	// quality returns final_accuracy and the runs it made and failed; quick
	// shortens it to 5 rounds.
	quality(quick bool) (acc float64, attempted, failed int, err error)
	// qualityFloor is the recorded lowest final_accuracy over seeds 1..20
	// less 0.05; a quality pass below it fails the workload.
	qualityFloor() float64
	// replay measures the workload's layers from outside (see replay.go).
	replay(rc *replayCtx) error
}

func allWorkloads() []workload {
	return []workload{&table5Cell{}, &pipelineRound{}, &nodeRound{}, &scaleCell{}}
}

// paramHash is FNV-1a over the IEEE bits of p: equal hashes are the
// benchmark's stand-in for bit-identical parameter vectors.
func paramHash(p []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range p {
		u := math.Float64bits(x)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// learn is the state the three learning workloads share: the materialised
// scenario and, per engine seed, the hash of the first run's final model.
type learn struct {
	seed   uint64
	mat    *abdhfl.Materials
	hashes map[uint64]uint64
}

func (l *learn) build(s abdhfl.Scenario) error {
	m, err := abdhfl.Build(s)
	if err != nil {
		return err
	}
	l.seed, l.mat, l.hashes = s.Seed, m, map[uint64]uint64{}
	return nil
}

func (l *learn) deviceRounds() int { return l.mat.Tree.NumDevices() * l.mat.Scenario.Rounds }

// checkParams fails a run whose final model is not finite or differs from
// the first run with the same engine seed: determinism is the repo's oracle.
func (l *learn) checkParams(engineSeed uint64, p []float64) error {
	if len(p) == 0 || !tensor.AllFinite(p) {
		return fmt.Errorf("final parameters empty or not finite")
	}
	h := paramHash(p)
	if first, ok := l.hashes[engineSeed]; ok && first != h {
		return fmt.Errorf("final parameters differ from the first run with engine seed %d", engineSeed)
	}
	l.hashes[engineSeed] = h
	return nil
}

// qualityRounds is how long the quality pass trains: 30 rounds, or 5 in a
// quick pass.
func qualityRounds(quick bool) int {
	if quick {
		return 5
	}
	return 30
}

// qualityRuns is the untimed quality pass: the scenario, built afresh, on
// engine seeds seed..seed+3 (seed alone in a quick pass), mean final test
// accuracy.
func qualityRuns(s abdhfl.Scenario, quick bool, run func(m *abdhfl.Materials, engineSeed uint64) (float64, error)) (acc float64, attempted, failed int, err error) {
	m, err := abdhfl.Build(s)
	if err != nil {
		return 0, 1, 1, err
	}
	n := 4
	if quick {
		n = 1
	}
	for i := 0; i < n; i++ {
		attempted++
		a, rerr := run(m, s.Seed+uint64(i))
		if rerr != nil {
			failed++
			err = rerr
			continue
		}
		acc += a / float64(n)
	}
	return acc, attempted, failed, err
}

// ---- table5_cell ---------------------------------------------------------

// table5Cell is one Table V / Fig 3 cell on the round engine: the scenario
// of BenchmarkTable5Cell/iid-multikrum/abdhfl, byte for byte.
type table5Cell struct{ learn }

func table5Scenario(seed uint64, rounds int) abdhfl.Scenario {
	return abdhfl.Scenario{
		Levels: 3, ClusterSize: 4, TopNodes: 4,
		Distribution: abdhfl.DistIID, Aggregator: "multi-krum", TopProtocol: "voting",
		Attack: abdhfl.AttackType1, MaliciousFraction: 0.50, Placement: abdhfl.PlacePrefix,
		Rounds: rounds, LocalIters: 5, BatchSize: 32,
		SamplesPerClient: 100, TestSamples: 400, ValidationSamples: 300, EvalEvery: 5,
		Seed: seed,
	}
}

func (w *table5Cell) name() string            { return "table5_cell" }
func (w *table5Cell) setup(seed uint64) error { return w.build(table5Scenario(seed, 5)) }
func (w *table5Cell) qualityFloor() float64   { return table5QualityFloor }

func (w *table5Cell) run(engineSeed uint64) error {
	res, err := w.mat.RunHFL(engineSeed)
	if err != nil {
		return err
	}
	if want := w.deviceRounds(); res.TrainerActivations != want {
		return fmt.Errorf("TrainerActivations = %d, want %d", res.TrainerActivations, want)
	}
	return w.checkParams(engineSeed, res.FinalParams)
}

func (w *table5Cell) quality(quick bool) (float64, int, int, error) {
	return qualityRuns(table5Scenario(w.seed, qualityRounds(quick)), quick, func(m *abdhfl.Materials, es uint64) (float64, error) {
		res, err := m.RunHFL(es)
		if err != nil {
			return 0, err
		}
		return res.FinalAccuracy, nil
	})
}

// ---- pipeline_round ------------------------------------------------------

// pipelineRound is abdhfl-pipeline's default shape on the asynchronous
// engine, evaluated every round as the Fig 3 curves are.
type pipelineRound struct{ learn }

func pipelineScenario(seed uint64, rounds int) abdhfl.Scenario {
	return abdhfl.Scenario{
		Levels: 4, ClusterSize: 3, TopNodes: 3,
		Attack: abdhfl.AttackType1, MaliciousFraction: 0.25, Placement: abdhfl.PlaceRandom,
		Rounds: rounds, SamplesPerClient: 80, TestSamples: 600, ValidationSamples: 400, EvalEvery: 1,
		Seed: seed,
	}
}

const pipelineFlagLevel = 1

func (w *pipelineRound) name() string            { return "pipeline_round" }
func (w *pipelineRound) setup(seed uint64) error { return w.build(pipelineScenario(seed, 5)) }
func (w *pipelineRound) qualityFloor() float64   { return pipelineQualityFloor }

func (w *pipelineRound) run(engineSeed uint64) error {
	res, err := w.mat.RunPipeline(engineSeed, pipelineFlagLevel, pipeline.DefaultTiming())
	if err != nil {
		return err
	}
	if res.CompletedRounds != w.mat.Scenario.Rounds || res.SubQuorum != 0 || res.Abandoned != 0 {
		return fmt.Errorf("completed %d of %d rounds, %d sub-quorum, %d abandoned",
			res.CompletedRounds, w.mat.Scenario.Rounds, res.SubQuorum, res.Abandoned)
	}
	return w.checkParams(engineSeed, res.FinalParams)
}

func (w *pipelineRound) quality(quick bool) (float64, int, int, error) {
	return qualityRuns(pipelineScenario(w.seed, qualityRounds(quick)), quick, func(m *abdhfl.Materials, es uint64) (float64, error) {
		res, err := m.RunPipeline(es, pipelineFlagLevel, pipeline.DefaultTiming())
		if err != nil {
			return 0, err
		}
		return res.FinalAccuracy, nil
	})
}

// ---- node_round ----------------------------------------------------------

// nodeRound is the server-less deployment: one engine per tree position
// plus the root over 127.0.0.1 sockets, ABA at the top, int8 on the wire,
// training kept light so the wire path is what the run spends its time on.
type nodeRound struct {
	learn
	// ref[engineSeed] is Materials.RunHFL's final model on the same
	// materials: every node of every timed run must reproduce it exactly.
	ref map[uint64][]float64
}

func nodeScenario(seed uint64, rounds int) abdhfl.Scenario {
	return abdhfl.Scenario{
		Levels: 3, ClusterSize: 4, TopNodes: 4,
		Aggregator: "multi-krum", TopProtocol: "aba", Codec: "int8",
		Attack: abdhfl.AttackType1, MaliciousFraction: 0.25, Placement: abdhfl.PlacePrefix,
		Rounds: rounds, LocalIters: 1, BatchSize: 8,
		SamplesPerClient: 24, TestSamples: 400, ValidationSamples: 300, EvalEvery: 5,
		Seed: seed,
	}
}

func (w *nodeRound) name() string          { return "node_round" }
func (w *nodeRound) qualityFloor() float64 { return nodeQualityFloor }

func (w *nodeRound) setup(seed uint64) error {
	w.ref = map[uint64][]float64{}
	return w.build(nodeScenario(seed, 5))
}

// prepare computes the reference of every engine seed the timed runs will
// use, so none is computed inside a timed window.
func (w *nodeRound) prepare() error {
	for s := uint64(0); s < engineSeeds; s++ {
		if _, err := w.reference(w.seed + s); err != nil {
			return err
		}
	}
	return nil
}

// reference returns RunHFL's final model for the engine seed, computing it
// on first use.
func (w *nodeRound) reference(engineSeed uint64) ([]float64, error) {
	if p, ok := w.ref[engineSeed]; ok {
		return p, nil
	}
	res, err := w.mat.RunHFL(engineSeed)
	if err != nil {
		return nil, fmt.Errorf("RunHFL reference: %w", err)
	}
	w.ref[engineSeed] = res.FinalParams
	return res.FinalParams, nil
}

func (w *nodeRound) cluster(m *abdhfl.Materials, engineSeed uint64) (*node.ClusterResult, error) {
	return node.RunCluster(node.ClusterOpts{Materials: m, Seed: engineSeed, Backend: node.BackendTCP})
}

func (w *nodeRound) run(engineSeed uint64) error {
	want, err := w.reference(engineSeed)
	if err != nil {
		return err
	}
	res, err := w.cluster(w.mat, engineSeed)
	if err != nil {
		return err
	}
	stalls := 0
	for id, r := range res.Results {
		stalls += r.Stalls
		if !bitsEqual(r.FinalParams, want) {
			return fmt.Errorf("node %d final parameters differ from Materials.RunHFL", id)
		}
	}
	t := res.Total
	if stalls != 0 || t.SendErrors != 0 || t.DecodeErrors != 0 || t.FramesSent != t.FramesDelivered {
		return fmt.Errorf("%d stalls, %d send errors, %d decode errors, %d frames sent / %d delivered",
			stalls, t.SendErrors, t.DecodeErrors, t.FramesSent, t.FramesDelivered)
	}
	return w.checkParams(engineSeed, res.Root.FinalParams)
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// quality trains 100 rounds, not 30: with one 8-sample step per round, 30
// rounds end on the steep part of the curve, where final accuracy swings
// from 0.27 to 0.41 between data seeds; by 100 it is 0.63–0.69.
func (w *nodeRound) quality(quick bool) (float64, int, int, error) {
	rounds := qualityRounds(quick)
	if !quick {
		rounds = 100
	}
	return qualityRuns(nodeScenario(w.seed, rounds), quick, func(m *abdhfl.Materials, es uint64) (float64, error) {
		res, err := w.cluster(m, es)
		if err != nil {
			return 0, err
		}
		return res.Root.FinalAccuracy, nil
	})
}

// ---- scale_cell ----------------------------------------------------------

// scaleCell is one cell of abdhfl-scale's default matrix, timed as the whole
// RunScale call (tree build and actor wiring included), not its event loop.
type scaleCell struct {
	opts experiments.ScaleOptions
	// first is the first run's result; every later run must repeat its
	// deterministic fields. last is the most recent, read by the replay.
	first, last *experiments.ScaleResult
	// loops is every run's ScaleResult.Elapsed in seconds: the event loop
	// alone, the figure the older devices/s numbers divided by.
	loops []float64
}

const (
	scaleDevices = 100_000
	scaleRounds  = 2
	// scaleMaxRelErr bounds the final model's distance from the synthetic
	// ground truth: median at γ = 0.1 holds it well below this on every seed.
	scaleMaxRelErr = 0.15
)

func scaleOptions(seed uint64) experiments.ScaleOptions {
	return experiments.ScaleOptions{
		Devices: scaleDevices, Depth: 3, Fanout: 8, Gamma: 0.1, Cohort: 4, Dim: 16,
		Rule: "median", Shards: 8, Rounds: scaleRounds, Seed: seed + 2,
	}
}

// scaleTopNodes is RunScale's top width for the cell: the smallest top
// cluster whose subtrees hold at least scaleDevices leaves.
func scaleTopNodes(o experiments.ScaleOptions) int {
	perTop := 1
	for l := 1; l < o.Depth; l++ {
		perTop *= o.Fanout
	}
	return (o.Devices + perTop - 1) / perTop
}

func (w *scaleCell) name() string          { return "scale_cell" }
func (w *scaleCell) qualityFloor() float64 { return scaleQualityFloor }
func (w *scaleCell) deviceRounds() int     { return w.first.Devices * scaleRounds }

// setup validates the options the way a caller of RunScale prepares them and
// builds the cell's tree once. RunScale takes no prebuilt tree, so every run
// builds it again (that cost is in run_s_p50); building it here makes
// setup_s a real, repeatable duration instead of a few nanoseconds, and
// shows the day a change lets callers hoist the build out of the run.
func (w *scaleCell) setup(seed uint64) error {
	o := scaleOptions(seed)
	if o.Gamma < 0 || o.Gamma >= 1 || o.Depth < 2 {
		return fmt.Errorf("scale options out of range: %+v", o)
	}
	tree, err := topology.NewECSM(o.Depth, o.Fanout, scaleTopNodes(o))
	if err != nil {
		return err
	}
	if tree.NumDevices() < o.Devices {
		return fmt.Errorf("tree holds %d devices, want at least %d", tree.NumDevices(), o.Devices)
	}
	w.opts, w.first, w.last, w.loops = o, nil, nil, nil
	return nil
}

func (w *scaleCell) run(uint64) error {
	res, err := experiments.RunScale(w.opts)
	if err != nil {
		return err
	}
	w.last = res
	w.loops = append(w.loops, res.Elapsed.Seconds())
	if res.Devices < scaleDevices || res.RelErr > scaleMaxRelErr {
		return fmt.Errorf("%d devices, RelErr %.4f", res.Devices, res.RelErr)
	}
	if w.first == nil {
		w.first = res
		return nil
	}
	if res.Events != w.first.Events || res.RelErr != w.first.RelErr || !reflect.DeepEqual(res.Levels, w.first.Levels) {
		return fmt.Errorf("Events/RelErr/Levels differ from the first run")
	}
	return nil
}

// quality needs no pass of its own: the cell's quality is how close the
// timed runs' global model lands to the ground-truth gradient.
func (w *scaleCell) quality(bool) (float64, int, int, error) {
	if w.first == nil {
		return 0, 0, 0, fmt.Errorf("scale_cell: no timed run to read RelErr from")
	}
	return 1 - w.first.RelErr, 0, 0, nil
}
