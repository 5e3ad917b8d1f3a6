package abdhfl

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"abdhfl/internal/core"
	"abdhfl/internal/pipeline"
	"abdhfl/internal/telemetry"
)

func quick(overrides func(*Scenario)) Scenario {
	s := Scenario{
		Levels: 3, ClusterSize: 2, TopNodes: 2,
		Rounds: 8, SamplesPerClient: 60, TestSamples: 300,
		ValidationSamples: 200, EvalEvery: 8,
	}
	if overrides != nil {
		overrides(&s)
	}
	return s.WithDefaults()
}

func TestScenarioDefaults(t *testing.T) {
	s := Scenario{}.WithDefaults()
	if s.Levels != 3 || s.ClusterSize != 4 || s.TopNodes != 4 {
		t.Fatalf("topology defaults wrong: %+v", s)
	}
	if s.Rounds != 200 || s.LocalIters != 5 {
		t.Fatalf("learning defaults wrong: %+v", s)
	}
	if s.Aggregator != "multi-krum" || s.TopProtocol != "voting" {
		t.Fatalf("rule defaults wrong: %+v", s)
	}
	if s.Clients() != 64 {
		t.Fatalf("clients = %d, want 64", s.Clients())
	}
}

func TestClientsFormula(t *testing.T) {
	s := Scenario{Levels: 4, ClusterSize: 3, TopNodes: 5}.WithDefaults()
	if s.Clients() != 5*3*3*3 {
		t.Fatalf("clients = %d", s.Clients())
	}
}

func TestBuildMaterials(t *testing.T) {
	m, err := Build(quick(nil))
	if err != nil {
		t.Fatal(err)
	}
	if m.Tree.NumDevices() != 8 {
		t.Fatalf("devices = %d", m.Tree.NumDevices())
	}
	if len(m.Shards) != 8 {
		t.Fatalf("shards = %d", len(m.Shards))
	}
	if len(m.ValidationShards) != 2 {
		t.Fatalf("validation shards = %d", len(m.ValidationShards))
	}
}

func TestBuildPoisonsPrefix(t *testing.T) {
	m, err := Build(quick(func(s *Scenario) {
		s.Attack = AttackType1
		s.MaliciousFraction = 0.25
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Byzantine) != 2 {
		t.Fatalf("byzantine count = %d, want 2", len(m.Byzantine))
	}
	if !m.Byzantine[0] || !m.Byzantine[1] {
		t.Fatalf("prefix placement wrong: %v", m.Byzantine)
	}
	// Client 0's labels are all 9; client 7's are untouched.
	for _, y := range m.Shards[0].Y {
		if y != 9 {
			t.Fatal("client 0 not poisoned")
		}
	}
	h := m.Shards[7].LabelHistogram()
	nonNine := 0
	for l, n := range h {
		if l != 9 {
			nonNine += n
		}
	}
	if nonNine == 0 {
		t.Fatal("honest client looks poisoned")
	}
}

func TestBuildModelAttack(t *testing.T) {
	m, err := Build(quick(func(s *Scenario) {
		s.Attack = AttackSignFlip
		s.MaliciousFraction = 0.25
	}))
	if err != nil {
		t.Fatal(err)
	}
	if m.ModelAttack == nil {
		t.Fatal("model attack not wired")
	}
	// Data must be untouched for model attacks.
	for _, y := range m.Shards[0].Y {
		if y == 9 {
			return // label 9 can legitimately occur; just ensure mix exists
		}
	}
}

func TestBuildRejectsBadScenario(t *testing.T) {
	if _, err := Build(quick(func(s *Scenario) { s.Distribution = "bogus" })); err == nil {
		t.Fatal("bogus distribution accepted")
	}
	if _, err := Build(quick(func(s *Scenario) { s.Attack = "bogus" })); err == nil {
		t.Fatal("bogus attack accepted")
	}
	if _, err := Build(quick(func(s *Scenario) { s.Aggregator = "bogus" })); err == nil {
		t.Fatal("bogus aggregator accepted")
	}
	if _, err := Build(quick(func(s *Scenario) { s.TopProtocol = "bogus" })); err == nil {
		t.Fatal("bogus protocol accepted")
	}
	if _, err := Build(quick(func(s *Scenario) { s.MaliciousFraction = 1.5 })); err == nil {
		t.Fatal("bad fraction accepted")
	}
	if _, err := Build(quick(func(s *Scenario) { s.Placement = "bogus"; s.MaliciousFraction = 0.1 })); err == nil {
		t.Fatal("bogus placement accepted")
	}
}

func TestRunEndToEnd(t *testing.T) {
	res, err := Run(quick(func(s *Scenario) { s.Rounds = 10 }))
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAccuracy <= 0.2 {
		t.Fatalf("accuracy = %v", res.FinalAccuracy)
	}
}

func TestRunBaselineEndToEnd(t *testing.T) {
	res, err := RunBaseline(quick(func(s *Scenario) { s.Rounds = 10 }))
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAccuracy <= 0.2 {
		t.Fatalf("baseline accuracy = %v", res.FinalAccuracy)
	}
}

func TestNonIIDScenarioRuns(t *testing.T) {
	s := quick(func(s *Scenario) {
		s.Distribution = DistNonIID
		s.Aggregator = "median"
		s.Rounds = 6
	})
	if _, err := Run(s); err != nil {
		t.Fatal(err)
	}
}

func TestDirichletScenarioRuns(t *testing.T) {
	s := quick(func(s *Scenario) {
		s.Distribution = DistDirichlet
		s.Rounds = 4
	})
	if _, err := Run(s); err != nil {
		t.Fatal(err)
	}
}

func TestAllSchemesRun(t *testing.T) {
	for scheme := 1; scheme <= 4; scheme++ {
		s := quick(func(s *Scenario) {
			s.Scheme = scheme
			s.Rounds = 3
		})
		if _, err := Run(s); err != nil {
			t.Fatalf("scheme %d: %v", scheme, err)
		}
	}
}

func TestAllAttacksBuild(t *testing.T) {
	for _, a := range []Attack{AttackNone, AttackType1, AttackType2, AttackBackdoor, AttackSignFlip, AttackNoise, AttackALE, AttackIPM} {
		m, err := Build(quick(func(s *Scenario) {
			s.Attack = a
			s.MaliciousFraction = 0.25
		}))
		if err != nil {
			t.Fatalf("attack %s: %v", a, err)
		}
		if m == nil {
			t.Fatalf("attack %s: nil materials", a)
		}
	}
}

func TestPlacements(t *testing.T) {
	for _, p := range []Placement{PlacePrefix, PlaceRandom, PlaceAdversarial} {
		m, err := Build(quick(func(s *Scenario) {
			s.Placement = p
			s.Attack = AttackType1
			s.MaliciousFraction = 0.25
		}))
		if err != nil {
			t.Fatalf("placement %s: %v", p, err)
		}
		if len(m.Byzantine) != 2 {
			t.Fatalf("placement %s marked %d devices, want 2", p, len(m.Byzantine))
		}
	}
}

func TestRepeatsAggregates(t *testing.T) {
	m, err := Build(quick(func(s *Scenario) { s.Rounds = 4; s.EvalEvery = 2 }))
	if err != nil {
		t.Fatal(err)
	}
	series, err := Repeats("x", 3, func(seed uint64) (*core.Result, error) {
		return m.RunHFL(seed)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(series.Points) != 2 {
		t.Fatalf("points = %d, want 2", len(series.Points))
	}
	if series.Points[0].Count != 3 {
		t.Fatalf("count = %d, want 3", series.Points[0].Count)
	}
}

func TestTheoreticalBound(t *testing.T) {
	if b := TheoreticalBound(Scenario{}); math.Abs(b-0.578125) > 1e-12 {
		t.Fatalf("bound = %v, want 0.578125", b)
	}
	if b := TheoreticalBound(Scenario{Levels: 2}); math.Abs(b-0.4375) > 1e-12 {
		t.Fatalf("2-level bound = %v, want 0.4375", b)
	}
}

func TestRunPipelineFromMaterials(t *testing.T) {
	m, err := Build(quick(func(s *Scenario) { s.Rounds = 5 }))
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.RunPipeline(1, 1, pipeline.DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	if res.Duration <= 0 {
		t.Fatal("pipeline did not run")
	}
}

// TestRunPipelineRefusesWhatItDoesNotRun: a scenario the pipeline cannot
// run as described is an error naming the field, never a different run.
func TestRunPipelineRefusesWhatItDoesNotRun(t *testing.T) {
	for _, tc := range []struct {
		name  string
		tweak func(*Scenario)
		want  string
	}{
		{"model attack", func(s *Scenario) { s.Attack, s.MaliciousFraction = AttackSignFlip, 0.25 }, "ModelAttack"},
		{"cohort", func(s *Scenario) { s.Cohort = 1 }, "Cohort"},
		{"scheme 2: a consensus partial", func(s *Scenario) { s.Scheme = 2 }, "Partial"},
		{"scheme 4: a consensus partial", func(s *Scenario) { s.Scheme = 4 }, "Partial"},
	} {
		m, err := Build(quick(func(s *Scenario) { s.Rounds = 2; tc.tweak(s) }))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.RunPipeline(1, 1, pipeline.DefaultTiming()); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one naming %s", tc.name, err, tc.want)
		}
	}
}

// TestRunPipelineSchemeThreeTopIsBRA: Scheme 3's BRA top is the rule the
// pipeline's top aggregates with, as the round engine's does.
func TestRunPipelineSchemeThreeTopIsBRA(t *testing.T) {
	m, err := Build(quick(func(s *Scenario) { s.Rounds, s.Scheme = 2, 3 }))
	if err != nil {
		t.Fatal(err)
	}
	var tops []string
	m.OnFilter = func(d telemetry.FilterDecision) {
		if d.Level == 0 {
			tops = append(tops, d.Rule)
		}
	}
	if _, err := m.RunPipeline(1, 1, pipeline.DefaultTiming()); err != nil {
		t.Fatal(err)
	}
	if len(tops) != 2 {
		t.Fatalf("%d top verdicts, want one a round: %v", len(tops), tops)
	}
	for _, rule := range tops {
		if rule != m.Scenario.Aggregator {
			t.Fatalf("top verdicts %v, want the BRA %q every round", tops, m.Scenario.Aggregator)
		}
	}
}

func TestPresets(t *testing.T) {
	p := PaperScenario()
	if p.Rounds != 200 || p.Clients() != 64 {
		t.Fatalf("paper preset wrong: %+v", p)
	}
	q := QuickScenario()
	if q.Rounds != 30 || q.Clients() != 64 {
		t.Fatalf("quick preset wrong: %+v", q)
	}
}

func TestACSMScenarioEndToEnd(t *testing.T) {
	s := Scenario{
		Topology:          TopologyACSM,
		ACSMDevices:       30,
		TopNodes:          4,
		Attack:            AttackType1,
		MaliciousFraction: 0.2,
		Rounds:            6,
		SamplesPerClient:  60,
		TestSamples:       300,
		ValidationSamples: 200,
		EvalEvery:         6,
	}.WithDefaults()
	if s.Clients() != 30 {
		t.Fatalf("ACSM clients = %d", s.Clients())
	}
	m, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	if m.Tree.NumDevices() != 30 {
		t.Fatalf("ACSM tree devices = %d", m.Tree.NumDevices())
	}
	res, err := m.RunHFL(1)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAccuracy <= 0.15 {
		t.Fatalf("ACSM accuracy = %v", res.FinalAccuracy)
	}
}

func TestUnknownTopologyRejected(t *testing.T) {
	if _, err := Build(quick(func(s *Scenario) { s.Topology = "mesh" })); err == nil {
		t.Fatal("unknown topology accepted")
	}
}

func TestScenarioJSONRoundTrip(t *testing.T) {
	s := Scenario{
		Attack:            AttackType1,
		MaliciousFraction: 0.3,
		Rounds:            42,
		Aggregator:        "median",
		Codec:             "delta-topk",
		Seed:              7,
	}
	var buf bytes.Buffer
	if err := WriteScenario(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadScenario(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != s {
		t.Fatalf("round trip changed scenario:\n got %+v\nwant %+v", got, s)
	}
}

func TestReadScenarioRejectsUnknownFields(t *testing.T) {
	if _, err := ReadScenario(strings.NewReader(`{"roundz": 10}`)); err == nil {
		t.Fatal("typo field accepted")
	}
	if _, err := ReadScenario(strings.NewReader(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestLoadScenarioFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "scenario.json")
	if err := os.WriteFile(path, []byte(`{"rounds": 5, "attack": "type2", "malicious_fraction": 0.25}`), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := LoadScenario(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Rounds != 5 || s.Attack != AttackType2 || s.MaliciousFraction != 0.25 {
		t.Fatalf("loaded %+v", s)
	}
	if _, err := LoadScenario(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestLoadedScenarioBuildsAndRuns(t *testing.T) {
	s, err := ReadScenario(strings.NewReader(`{
		"levels": 3, "cluster_size": 2, "top_nodes": 2,
		"rounds": 3, "samples_per_client": 40,
		"test_samples": 200, "validation_samples": 150, "eval_every": 3
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(s); err != nil {
		t.Fatal(err)
	}
}

// TestBuildRejectsFractionOutOfRange holds MaliciousFraction to [0,1] under
// every placement: a NaN once panicked under prefix and random placement and
// built no Byzantine device under adversarial placement.
func TestBuildRejectsFractionOutOfRange(t *testing.T) {
	for _, p := range []Placement{PlacePrefix, PlaceRandom, PlaceAdversarial} {
		for _, f := range []float64{-0.1, 1.5, math.NaN()} {
			_, err := Build(quick(func(s *Scenario) { s.Placement = p; s.MaliciousFraction = f }))
			if err == nil || !strings.Contains(err.Error(), "malicious fraction") {
				t.Errorf("%s placement, fraction %v: error %v, want one naming the fraction", p, f, err)
			}
		}
	}
}
