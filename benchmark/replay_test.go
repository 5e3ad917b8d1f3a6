package main

import (
	"testing"

	"abdhfl"
	"abdhfl/internal/node"
	"abdhfl/internal/simnet"
	"abdhfl/internal/telemetry"
)

// smallScenario is a 2-level, 6-device tree: two bottom clusters of three
// under a top cluster of their two leaders.
func smallScenario(top, codec string) abdhfl.Scenario {
	return abdhfl.Scenario{
		Levels: 2, ClusterSize: 3, TopNodes: 2,
		Aggregator: "multi-krum", TopProtocol: top, Codec: codec,
		Attack: abdhfl.AttackType1, MaliciousFraction: 0.34,
		Rounds: 2, LocalIters: 1, BatchSize: 4,
		SamplesPerClient: 12, TestSamples: 40, ValidationSamples: 40, EvalEvery: 1,
		Seed: 5,
	}
}

// The replay is only worth timing if it does the engine's work: the same
// number of trainings, aggregations and transfers, ending on the same model.
func TestReplayCountsEqualRoundEngine(t *testing.T) {
	mat, err := abdhfl.Build(smallScenario("voting", ""))
	if err != nil {
		t.Fatal(err)
	}
	if mat.Tree.NumDevices() != 6 || mat.Tree.Depth() != 2 {
		t.Fatalf("scenario built %d devices over %d levels, want 6 over 2", mat.Tree.NumDevices(), mat.Tree.Depth())
	}
	filters := 0
	mat.OnFilter = func(telemetry.FilterDecision) { filters++ }
	ref, err := mat.RunHFL(9)
	mat.OnFilter = nil
	if err != nil {
		t.Fatal(err)
	}

	h := newHFLReplay(mat, false, false)
	rec := newRecorder()
	final, err := h.run(rec, 9)
	if err != nil {
		t.Fatal(err)
	}
	c := h.counts
	if !bitsEqual(final, ref.FinalParams) {
		t.Error("replay's final model differs from RunHFL's")
	}
	if c.trainCalls != ref.TrainerActivations || c.trainCalls != 6*2 {
		t.Errorf("replay trained %d times, engine %d, want 12", c.trainCalls, ref.TrainerActivations)
	}
	if c.aggCalls+c.agreeCalls != filters || c.aggCalls != 2*2 || c.agreeCalls != 2 {
		t.Errorf("replay made %d aggregations and %d agreements, engine's OnFilter fired %d times", c.aggCalls, c.agreeCalls, filters)
	}
	if c.modelTransfers != ref.Comm.ModelTransfers || c.scalarMessages != ref.Comm.ScalarMessages {
		t.Errorf("replay counted %d transfers and %d scalar messages, engine %d and %d",
			c.modelTransfers, c.scalarMessages, ref.Comm.ModelTransfers, ref.Comm.ScalarMessages)
	}
	if c.evalCalls != len(ref.Curve) {
		t.Errorf("replay evaluated %d times, engine %d", c.evalCalls, len(ref.Curve))
	}
	// Every counted call is a span, and validator scorings are children of
	// the agreement they serve.
	byName := map[string]int{}
	children := 0
	for _, s := range rec.spans {
		byName[s.Name]++
		if s.Name == "nn.eval" && s.Parent != 0 {
			children++
		}
	}
	if byName["nn.train"] != c.trainCalls || byName["aggregate"] != c.aggCalls ||
		byName["consensus"] != c.agreeCalls || byName["nn.eval"] != c.validatorCalls+c.evalCalls {
		t.Errorf("spans %v do not match counts %+v", byName, c)
	}
	if children != c.validatorCalls || c.validatorCalls != 2*2*2 {
		t.Errorf("%d validator spans under a consensus span, %d validator calls, want 8", children, c.validatorCalls)
	}
}

func TestReplayCountsEqualNodeEngine(t *testing.T) {
	mat, err := abdhfl.Build(smallScenario("aba", "int8"))
	if err != nil {
		t.Fatal(err)
	}
	core, err := mat.RunHFL(9)
	if err != nil {
		t.Fatal(err)
	}
	res, err := node.RunCluster(node.ClusterOpts{Materials: mat, Seed: 9, Backend: node.BackendLoopback})
	if err != nil {
		t.Fatal(err)
	}
	h := newHFLReplay(mat, true, false)
	final, err := h.run(nil, 9)
	if err != nil {
		t.Fatal(err)
	}
	c := h.counts
	if !bitsEqual(final, core.FinalParams) || !bitsEqual(final, res.Root.FinalParams) {
		t.Error("replay, RunHFL and the cluster do not end on one model")
	}
	if int64(c.frames) != res.Total.FramesSent {
		t.Errorf("replay sent %d frames, cluster %d", c.frames, res.Total.FramesSent)
	}
	if c.aggCalls+c.agreeCalls != len(res.Root.Audit) {
		t.Errorf("replay made %d aggregation steps, root's audit has %d", c.aggCalls+c.agreeCalls, len(res.Root.Audit))
	}
	// Per round: 4 updates and 2 partials up, the global to 2 top members and
	// on to 4 more devices, 2 proposals and 2 ballots.
	if want := 2 * (4 + 2 + 6 + 4); c.frames != want {
		t.Errorf("replay sent %d frames, want %d", c.frames, want)
	}
	// One encode per model frame sent from a sender that forms it (4 + 2 + 1
	// a round), one decode per receiver (4 + 2 + 7), one transcode per
	// leader's own update.
	if c.encodes != 2*7 || c.decodes != 2*13 || c.transcodes != 2*2 {
		t.Errorf("replay made %d encodes, %d decodes, %d transcodes; want 14, 26, 4", c.encodes, c.decodes, c.transcodes)
	}
}

func TestSimnetRelayCarriesExactlyItsLoad(t *testing.T) {
	l := relayLoad{latency: simnet.Uniform{Min: 1, Max: 15}, shards: 4, workers: 2, nodes: 37, events: 5000, messages: 1700, peak: 300}
	rec := newRecorder()
	if _, err := simnetRelay(rec, l); err != nil {
		t.Fatal(err)
	}
	if len(rec.spans) != 2 || rec.spans[0].Name != "simnet.register" || rec.spans[1].Name != "simnet.run" {
		t.Errorf("relay spans = %+v", rec.spans)
	}
	// A load whose peak exceeds its events still carries exactly its events.
	if _, err := simnetRelay(nil, relayLoad{latency: simnet.Fixed(1), shards: 1, workers: 1, nodes: 3, events: 10, messages: 10, peak: 50}); err != nil {
		t.Fatal(err)
	}
}
