package abdhfl

import (
	"testing"

	"abdhfl/internal/aggregate"
	"abdhfl/internal/consensus"
	"abdhfl/internal/pipeline"
)

// Integration tests: the round engine and the discrete-event pipeline run the
// same materialised scenario and must both learn — the protocol's behaviour
// should not depend on which execution substrate carries it. The node engine
// (internal/node, which imports this package) is held to the round engine
// bit for bit by its own conformance tests.

func TestAllEnginesLearnSameScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	s := Scenario{
		Levels: 3, ClusterSize: 2, TopNodes: 2,
		Attack:            AttackType1,
		MaliciousFraction: 0.25,
		Rounds:            20,
		SamplesPerClient:  80,
		TestSamples:       400,
		ValidationSamples: 300,
		EvalEvery:         20,
	}.WithDefaults()
	m, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}

	const floor = 0.4

	roundRes, err := m.RunHFL(1)
	if err != nil {
		t.Fatal(err)
	}
	if roundRes.FinalAccuracy < floor {
		t.Fatalf("round engine accuracy = %v", roundRes.FinalAccuracy)
	}

	pipeRes, err := m.RunPipeline(1, 0, pipeline.DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	if pipeRes.FinalAccuracy < floor {
		t.Fatalf("pipeline engine accuracy = %v", pipeRes.FinalAccuracy)
	}
}

func TestRoundEngineBeatsMeanBaselineUnderHeavyPoisoning(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	// The repository's headline claim in one test: at 50% Type I poisoning
	// the hierarchical system stays near its clean accuracy while mean-
	// aggregated vanilla FL collapses to chance.
	s := Scenario{
		Attack:            AttackType1,
		MaliciousFraction: 0.50,
		Rounds:            15,
		SamplesPerClient:  100,
		TestSamples:       500,
		EvalEvery:         15,
	}.WithDefaults()
	m, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	hfl, err := m.RunHFL(1)
	if err != nil {
		t.Fatal(err)
	}
	s2 := s
	s2.Aggregator = "mean"
	m2, err := Build(s2)
	if err != nil {
		t.Fatal(err)
	}
	van, err := m2.RunVanilla(1)
	if err != nil {
		t.Fatal(err)
	}
	if hfl.FinalAccuracy < 0.5 {
		t.Fatalf("ABD-HFL accuracy = %v", hfl.FinalAccuracy)
	}
	if van.FinalAccuracy > 0.3 {
		t.Fatalf("mean vanilla did not collapse: %v", van.FinalAccuracy)
	}
}

func TestAllProtocolsAtTopEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	for _, proto := range consensus.Names() {
		proto := proto
		t.Run(proto, func(t *testing.T) {
			s := Scenario{
				Levels: 3, ClusterSize: 2, TopNodes: 4,
				TopProtocol:       proto,
				Rounds:            5,
				SamplesPerClient:  60,
				TestSamples:       300,
				ValidationSamples: 200,
				EvalEvery:         5,
			}.WithDefaults()
			res, err := Run(s)
			if err != nil {
				t.Fatalf("%s: %v", proto, err)
			}
			if res.FinalAccuracy <= 0.1 {
				t.Fatalf("%s: accuracy %v", proto, res.FinalAccuracy)
			}
		})
	}
}

func TestAllAggregatorsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	for _, name := range aggregate.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			s := Scenario{
				Levels: 3, ClusterSize: 4, TopNodes: 2,
				Aggregator:        name,
				Attack:            AttackType1,
				MaliciousFraction: 0.1,
				Rounds:            4,
				SamplesPerClient:  60,
				TestSamples:       300,
				ValidationSamples: 200,
				EvalEvery:         4,
			}.WithDefaults()
			res, err := Run(s)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if res.FinalAccuracy <= 0.1 {
				t.Fatalf("%s: accuracy %v", name, res.FinalAccuracy)
			}
		})
	}
}
