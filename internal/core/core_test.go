package core

import (
	"math"
	"strings"
	"testing"

	"abdhfl/internal/aggregate"
	"abdhfl/internal/attack"
	"abdhfl/internal/consensus"
	"abdhfl/internal/dataset"
	"abdhfl/internal/nn"
	"abdhfl/internal/rng"
	"abdhfl/internal/topology"
)

// buildScenario assembles a small but complete ABD-HFL configuration:
// levels/m/top topology, IID shards, optional label-flip poisoning of the
// first `byz` devices.
func buildScenario(t testing.TB, levels, m, top, rounds, samplesPerClient, byz int) Config {
	t.Helper()
	tree, err := topology.NewECSM(levels, m, top)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(42)
	devices := tree.NumDevices()
	full := dataset.Generate(r.Derive("train"), devices*samplesPerClient, dataset.DefaultGen())
	shards := dataset.PartitionIID(r.Derive("part"), full, devices)
	test := dataset.Generate(r.Derive("test"), 500, dataset.DefaultGen())
	valPool := dataset.Generate(r.Derive("val"), 400, dataset.DefaultGen())
	valShards := dataset.PartitionIID(r.Derive("valpart"), valPool, top)

	byzMap := map[int]bool{}
	for id := 0; id < byz; id++ {
		byzMap[id] = true
		attack.LabelFlipAll{Target: 9}.Poison(r.Derive("poison"), shards[id])
	}
	return Config{
		Tree:             tree,
		Rounds:           rounds,
		Local:            nn.TrainConfig{LearningRate: 0.1, BatchSize: 16, Iterations: 5},
		Partial:          LevelRule{BRA: aggregate.NewMultiKrum(0.25)},
		Global:           LevelRule{CBA: consensus.Voting{}},
		ClientData:       shards,
		TestData:         test,
		ValidationShards: valShards,
		Byzantine:        byzMap,
		Seed:             7,
		EvalEvery:        rounds, // only final accuracy by default
	}
}

func TestRunHFLLearnsWithoutAttack(t *testing.T) {
	cfg := buildScenario(t, 3, 2, 2, 25, 120, 0)
	res, err := RunHFL(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAccuracy < 0.6 {
		t.Fatalf("clean accuracy = %v, want > 0.6", res.FinalAccuracy)
	}
	if res.Comm.ModelTransfers == 0 {
		t.Fatal("no communication recorded")
	}
}

func TestRunHFLDeterministic(t *testing.T) {
	run := func() []RoundStat {
		cfg := buildScenario(t, 3, 2, 2, 5, 60, 0)
		cfg.EvalEvery = 1
		res, err := RunHFL(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Curve
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("curve lengths differ")
	}
	for i := range a {
		if a[i].Accuracy != b[i].Accuracy || a[i].Loss != b[i].Loss {
			t.Fatalf("non-deterministic at round %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestRunHFLWorkerCountInvariance(t *testing.T) {
	// The result must not depend on worker-pool size or scheduling.
	curves := make([][]RoundStat, 2)
	for i, workers := range []int{1, 8} {
		cfg := buildScenario(t, 3, 2, 2, 4, 60, 0)
		cfg.Workers = workers
		cfg.EvalEvery = 1
		res, err := RunHFL(cfg)
		if err != nil {
			t.Fatal(err)
		}
		curves[i] = res.Curve
	}
	for i := range curves[0] {
		if curves[0][i].Accuracy != curves[1][i].Accuracy {
			t.Fatalf("workers changed accuracy at round %d", i)
		}
		// Loss is a float sum, so it only stays bit-identical because the
		// chunked evaluation reduces partials in fixed chunk order.
		if curves[0][i].Loss != curves[1][i].Loss {
			t.Fatalf("workers changed loss at round %d: %v vs %v",
				i, curves[0][i].Loss, curves[1][i].Loss)
		}
	}
}

func TestRunHFLResistsPoisoningAtBound(t *testing.T) {
	// Paper topology (3 levels, m=4, top=4, 64 clients) at 50% label-flip
	// poisoning: MultiKrum per cluster + voting top must hold accuracy while
	// plain-mean vanilla collapses. Reduced rounds/data keep the test fast.
	cfg := buildScenario(t, 3, 4, 4, 12, 80, 32)
	res, err := RunHFL(cfg)
	if err != nil {
		t.Fatal(err)
	}
	van, err := RunVanilla(VanillaConfig{
		Rounds:     12,
		Local:      cfg.Local,
		Rule:       LevelRule{BRA: aggregate.Mean{}},
		ClientData: cfg.ClientData,
		TestData:   cfg.TestData,
		Byzantine:  cfg.Byzantine,
		Seed:       7,
		EvalEvery:  12,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAccuracy < 0.55 {
		t.Fatalf("ABD-HFL accuracy under 50%% poisoning = %v, want > 0.55", res.FinalAccuracy)
	}
	if van.FinalAccuracy > res.FinalAccuracy {
		t.Fatalf("vanilla mean (%v) outperformed ABD-HFL (%v) under attack", van.FinalAccuracy, res.FinalAccuracy)
	}
}

func TestVanillaLearnsWithoutAttack(t *testing.T) {
	cfg := buildScenario(t, 3, 2, 2, 20, 120, 0)
	res, err := RunVanilla(VanillaConfig{
		Rounds:     20,
		Local:      cfg.Local,
		Rule:       LevelRule{BRA: aggregate.NewMultiKrum(0.25)},
		ClientData: cfg.ClientData,
		TestData:   cfg.TestData,
		Seed:       7,
		EvalEvery:  20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAccuracy < 0.6 {
		t.Fatalf("vanilla clean accuracy = %v", res.FinalAccuracy)
	}
}

func TestRunHFLWithModelAttackAndMedian(t *testing.T) {
	// Cluster size 4 so the coordinate median has a honest majority per
	// cluster: only the first cluster holds a (single) sign-flipping member.
	cfg := buildScenario(t, 3, 4, 4, 8, 60, 1)
	cfg.Partial = LevelRule{BRA: aggregate.Median{}}
	cfg.ModelAttack = attack.SignFlip{Scale: 5}
	res, err := RunHFL(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAccuracy < 0.3 {
		t.Fatalf("median + sign-flip accuracy = %v, want > 0.3", res.FinalAccuracy)
	}
}

func TestRunHFLQuorumSubsampling(t *testing.T) {
	cfg := buildScenario(t, 3, 4, 4, 3, 40, 0)
	cfg.Quorum = 0.75
	res, err := RunHFL(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curve) == 0 {
		t.Fatal("no curve")
	}
}

func TestRunHFLAllSchemes(t *testing.T) {
	for _, s := range Schemes() {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			cfg := buildScenario(t, 3, 2, 2, 3, 40, 1)
			partial, global, err := s.Rules(aggregate.NewMultiKrum(0.25), consensus.Voting{})
			if err != nil {
				t.Fatal(err)
			}
			cfg.Partial, cfg.Global = partial, global
			if _, err := RunHFL(cfg); err != nil {
				t.Fatalf("%s failed: %v", s, err)
			}
		})
	}
}

func TestSchemeRulesWiring(t *testing.T) {
	bra := aggregate.Median{}
	cba := consensus.Voting{}
	p, g, err := Scheme1.Rules(bra, cba)
	if err != nil || p.IsCBA() || !g.IsCBA() {
		t.Fatal("scheme 1 wiring wrong")
	}
	p, g, _ = Scheme2.Rules(bra, cba)
	if !p.IsCBA() || g.IsCBA() {
		t.Fatal("scheme 2 wiring wrong")
	}
	p, g, _ = Scheme3.Rules(bra, cba)
	if p.IsCBA() || g.IsCBA() {
		t.Fatal("scheme 3 wiring wrong")
	}
	p, g, _ = Scheme4.Rules(bra, cba)
	if !p.IsCBA() || !g.IsCBA() {
		t.Fatal("scheme 4 wiring wrong")
	}
	if _, _, err := Scheme(0).Rules(bra, cba); err == nil {
		t.Fatal("invalid scheme accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := buildScenario(t, 3, 2, 2, 2, 20, 0)

	bad := cfg
	bad.Rounds = 0
	if _, err := RunHFL(bad); err == nil {
		t.Fatal("zero rounds accepted")
	}

	bad = cfg
	bad.ClientData = bad.ClientData[:1]
	if _, err := RunHFL(bad); err == nil {
		t.Fatal("shard/device mismatch accepted")
	}

	bad = cfg
	bad.Partial = LevelRule{}
	if _, err := RunHFL(bad); err == nil {
		t.Fatal("empty partial rule accepted")
	}

	bad = cfg
	bad.Partial = LevelRule{BRA: aggregate.Mean{}, CBA: consensus.Voting{}}
	if _, err := RunHFL(bad); err == nil {
		t.Fatal("double partial rule accepted")
	}

	bad = cfg
	bad.ValidationShards = nil
	if _, err := RunHFL(bad); err == nil {
		t.Fatal("CBA without validation shards accepted")
	}

	bad = cfg
	bad.ValidationShards = append([]*dataset.Dataset(nil), cfg.ValidationShards...)
	bad.ValidationShards[0] = &dataset.Dataset{}
	if _, err := RunHFL(bad); err == nil {
		t.Fatal("empty validation shard entry accepted")
	}

	bad = cfg
	bad.Quorum = 1.5
	if _, err := RunHFL(bad); err == nil {
		t.Fatal("quorum > 1 accepted")
	}
}

func TestEvalEveryControlsCurve(t *testing.T) {
	cfg := buildScenario(t, 3, 2, 2, 6, 30, 0)
	cfg.EvalEvery = 2
	res, err := RunHFL(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curve) != 3 {
		t.Fatalf("curve length = %d, want 3", len(res.Curve))
	}
	if res.Curve[len(res.Curve)-1].Round != 6 {
		t.Fatal("final round not evaluated")
	}
}

func TestLevelRuleName(t *testing.T) {
	if n := (LevelRule{BRA: aggregate.Median{}}).Name(); n != "bra:median" {
		t.Fatalf("name = %q", n)
	}
	if n := (LevelRule{CBA: consensus.Voting{}}).Name(); n != "cba:voting" {
		t.Fatalf("name = %q", n)
	}
	if n := (LevelRule{}).Name(); n != "unset" {
		t.Fatalf("name = %q", n)
	}
}

func BenchmarkHFLRound64Clients(b *testing.B) {
	cfg := buildScenario(b, 3, 4, 4, 1, 100, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunHFL(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func TestRunHFLOnACSMTree(t *testing.T) {
	// The round engine must work on arbitrary-cluster-size trees (Appendix C),
	// not just the ECSM shape.
	r := rng.New(77)
	tree, err := topology.NewACSM(r, 40, 3, 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	devices := tree.NumDevices()
	full := dataset.Generate(r.Derive("train"), devices*60, dataset.DefaultGen())
	shards := dataset.PartitionIID(r.Derive("part"), full, devices)
	test := dataset.Generate(r.Derive("test"), 400, dataset.DefaultGen())
	valPool := dataset.Generate(r.Derive("val"), 300, dataset.DefaultGen())
	valShards := dataset.PartitionIID(r.Derive("valpart"), valPool, tree.Top().Size())
	cfg := Config{
		Tree:             tree,
		Rounds:           8,
		Local:            nn.TrainConfig{LearningRate: 0.1, BatchSize: 16, Iterations: 5},
		Partial:          LevelRule{BRA: aggregate.NewMultiKrum(0.25)},
		Global:           LevelRule{CBA: consensus.Voting{}},
		ClientData:       shards,
		TestData:         test,
		ValidationShards: valShards,
		Seed:             9,
		EvalEvery:        8,
	}
	res, err := RunHFL(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAccuracy < 0.3 {
		t.Fatalf("ACSM accuracy = %v", res.FinalAccuracy)
	}
}

func TestRunHFLBackdoorMeasuredByTriggerRate(t *testing.T) {
	// End-to-end backdoor: 25% of clients (the first four bottom clusters)
	// implant a trigger. MultiKrum cluster filtering plus the voting top must
	// keep the GLOBAL model's trigger success rate far below an undefended
	// mean-aggregated vanilla run.
	cfg := buildScenario(t, 3, 4, 4, 15, 80, 0)
	bd := attack.DefaultBackdoor()
	r := rng.New(88)
	for id := 0; id < 16; id++ {
		cfg.Byzantine[id] = true
		bd.Poison(r.Derive("bd"), cfg.ClientData[id])
	}
	res, err := RunHFL(cfg)
	if err != nil {
		t.Fatal(err)
	}
	van, err := RunVanilla(VanillaConfig{
		Rounds:     15,
		Local:      cfg.Local,
		Rule:       LevelRule{BRA: aggregate.Mean{}},
		ClientData: cfg.ClientData,
		TestData:   cfg.TestData,
		Byzantine:  cfg.Byzantine,
		Seed:       7,
		EvalEvery:  15,
	})
	if err != nil {
		t.Fatal(err)
	}
	model := nn.New(rng.New(1), dataset.Dim, 32, dataset.NumClasses)
	model.SetParams(res.FinalParams)
	hflRate := attack.BackdoorSuccessRate(model, cfg.TestData, bd)
	model.SetParams(van.FinalParams)
	vanRate := attack.BackdoorSuccessRate(model, cfg.TestData, bd)
	if vanRate < 0.3 {
		t.Fatalf("sanity: undefended vanilla trigger rate = %v, expected high", vanRate)
	}
	if hflRate >= vanRate {
		t.Fatalf("ABD-HFL trigger rate %v not below vanilla %v", hflRate, vanRate)
	}
	if hflRate > 0.3 {
		t.Fatalf("ABD-HFL trigger rate = %v, want < 0.3", hflRate)
	}
}

func TestRunHFLWithChurn(t *testing.T) {
	// 20% per-round offline probability: the run must complete, learn, and
	// stay deterministic.
	cfg := buildScenario(t, 3, 4, 4, 10, 80, 0)
	cfg.Churn = ChurnModel{OfflineProb: 0.2}
	res, err := RunHFL(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAccuracy < 0.4 {
		t.Fatalf("churn accuracy = %v", res.FinalAccuracy)
	}
	res2, err := RunHFL(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAccuracy != res2.FinalAccuracy {
		t.Fatal("churn made the run non-deterministic")
	}
}

func TestRunHFLChurnWithAttack(t *testing.T) {
	// Churn + model attack: offline Byzantine devices must not break the
	// attack bookkeeping.
	cfg := buildScenario(t, 3, 4, 4, 5, 60, 4)
	cfg.Churn = ChurnModel{OfflineProb: 0.3}
	cfg.ModelAttack = attack.SignFlip{Scale: 3}
	if _, err := RunHFL(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestChurnValidation(t *testing.T) {
	cfg := buildScenario(t, 3, 2, 2, 2, 20, 0)
	cfg.Churn = ChurnModel{OfflineProb: 1.0}
	if _, err := RunHFL(cfg); err == nil {
		t.Fatal("OfflineProb = 1 accepted")
	}
	cfg.Churn = ChurnModel{OfflineProb: -0.1}
	if _, err := RunHFL(cfg); err == nil {
		t.Fatal("negative OfflineProb accepted")
	}
}

// TestConfigFractionsInRange holds Quorum to [0,1] and Churn.OfflineProb to
// [0,1): every value out of range, NaN included, is an error naming the field.
func TestConfigFractionsInRange(t *testing.T) {
	cfg := buildScenario(t, 3, 2, 2, 2, 20, 0)
	for _, c := range []struct {
		field string
		v     float64
		set   func(*Config, float64)
	}{
		{"Quorum", -0.1, func(c *Config, v float64) { c.Quorum = v }},
		{"Quorum", 1.5, func(c *Config, v float64) { c.Quorum = v }},
		{"Quorum", math.NaN(), func(c *Config, v float64) { c.Quorum = v }},
		{"OfflineProb", -0.1, func(c *Config, v float64) { c.Churn.OfflineProb = v }},
		{"OfflineProb", 1, func(c *Config, v float64) { c.Churn.OfflineProb = v }},
		{"OfflineProb", math.NaN(), func(c *Config, v float64) { c.Churn.OfflineProb = v }},
	} {
		bad := cfg
		c.set(&bad, c.v)
		if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s %v: error %v, want one naming the field", c.field, c.v, err)
		}
	}
}

func TestRunHFLWithLeaderRotation(t *testing.T) {
	cfg := buildScenario(t, 3, 4, 4, 8, 60, 8)
	cfg.RotateLeaders = true
	res, err := RunHFL(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAccuracy < 0.4 {
		t.Fatalf("rotation accuracy = %v", res.FinalAccuracy)
	}
	// Determinism preserved.
	res2, err := RunHFL(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAccuracy != res2.FinalAccuracy {
		t.Fatal("rotation made runs non-deterministic")
	}
}

func TestPartialByLevelOverrides(t *testing.T) {
	// Bottom level uses Median, level 1 uses the default MultiKrum; the run
	// must complete and learn.
	cfg := buildScenario(t, 3, 4, 4, 6, 60, 4)
	cfg.PartialByLevel = map[int]LevelRule{
		2: {BRA: aggregate.Median{}},
	}
	res, err := RunHFL(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAccuracy < 0.3 {
		t.Fatalf("per-level accuracy = %v", res.FinalAccuracy)
	}
}

func TestPartialByLevelValidation(t *testing.T) {
	cfg := buildScenario(t, 3, 2, 2, 2, 20, 0)
	cfg.PartialByLevel = map[int]LevelRule{0: {BRA: aggregate.Mean{}}}
	if _, err := RunHFL(cfg); err == nil {
		t.Fatal("level-0 override accepted (that's Global's job)")
	}
	cfg.PartialByLevel = map[int]LevelRule{1: {}}
	if _, err := RunHFL(cfg); err == nil {
		t.Fatal("empty per-level rule accepted")
	}

	// VanillaConfig.Rule is held to the same rule: exactly one of BRA or CBA.
	van := VanillaConfig{Rounds: 1, ClientData: cfg.ClientData, TestData: cfg.TestData}
	for _, c := range []struct {
		rule LevelRule
		ok   bool
	}{
		{LevelRule{}, false},
		{LevelRule{BRA: aggregate.Mean{}, CBA: consensus.Voting{}}, false},
		{LevelRule{BRA: aggregate.Mean{}}, true},
		{LevelRule{CBA: consensus.Voting{}}, true},
	} {
		van.Rule = c.rule
		if err := van.Validate(); (err == nil) != c.ok || (err != nil && !strings.Contains(err.Error(), "vanilla rule")) {
			t.Errorf("vanilla Rule %+v: Validate = %v, want ok=%v", c.rule, err, c.ok)
		}
	}
}

// TestPartialByLevelValidationNamesLowestLevel: with two bad levels the
// error always names the lower one, whatever the map's iteration order.
func TestPartialByLevelValidationNamesLowestLevel(t *testing.T) {
	cfg := buildScenario(t, 3, 2, 2, 2, 20, 0)
	cfg.PartialByLevel = map[int]LevelRule{1: {}, 2: {}}
	for i := 0; i < 20; i++ {
		err := cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), "PartialByLevel[1]") {
			t.Fatalf("call %d: Validate = %v, want the level-1 error", i, err)
		}
	}
}

func TestPartialByLevelCBAAtOneLevel(t *testing.T) {
	// Mixed setup: voting CBA inside level-1 clusters, BRA at the bottom.
	cfg := buildScenario(t, 3, 2, 2, 4, 40, 0)
	cfg.PartialByLevel = map[int]LevelRule{
		1: {CBA: consensus.Voting{}},
	}
	if _, err := RunHFL(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestOnRoundCallback(t *testing.T) {
	cfg := buildScenario(t, 3, 2, 2, 4, 30, 0)
	cfg.EvalEvery = 2
	var seen []int
	cfg.OnRound = func(s RoundStat) { seen = append(seen, s.Round) }
	if _, err := RunHFL(cfg); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 || seen[0] != 2 || seen[1] != 4 {
		t.Fatalf("callback rounds = %v", seen)
	}
}
