package pipeline

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"abdhfl/internal/aggregate"
	"abdhfl/internal/attack"
	"abdhfl/internal/consensus"
	"abdhfl/internal/core"
	"abdhfl/internal/dataset"
	"abdhfl/internal/fault"
	"abdhfl/internal/nn"
	"abdhfl/internal/rng"
	"abdhfl/internal/simnet"
	"abdhfl/internal/step"
	"abdhfl/internal/topology"
)

func buildConfig(t testing.TB, levels, m, top, rounds, flagLevel, byz int) Config {
	t.Helper()
	tree, err := topology.NewECSM(levels, m, top)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(11)
	devices := tree.NumDevices()
	full := dataset.Generate(r.Derive("train"), devices*60, dataset.DefaultGen())
	shards := dataset.PartitionIID(r.Derive("part"), full, devices)
	test := dataset.Generate(r.Derive("test"), 400, dataset.DefaultGen())
	valPool := dataset.Generate(r.Derive("val"), 300, dataset.DefaultGen())
	valShards := dataset.PartitionIID(r.Derive("valpart"), valPool, top)
	byzMap := map[int]bool{}
	for id := 0; id < byz; id++ {
		byzMap[id] = true
		attack.LabelFlipAll{Target: 9}.Poison(r.Derive("poison"), shards[id])
	}
	return Config{
		Config: core.Config{
			Tree:             tree,
			Rounds:           rounds,
			Local:            nn.TrainConfig{LearningRate: 0.1, BatchSize: 16, Iterations: 5},
			Partial:          step.Rule{BRA: aggregate.NewMultiKrum(0.25)},
			Global:           step.Rule{CBA: consensus.Voting{}},
			ClientData:       shards,
			TestData:         test,
			ValidationShards: valShards,
			Byzantine:        byzMap,
			Seed:             3,
			EvalEvery:        rounds,
		},
		FlagLevel: flagLevel,
	}
}

func TestPipelineRunsAndLearns(t *testing.T) {
	cfg := buildConfig(t, 3, 2, 2, 25, 1, 0)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAccuracy < 0.5 {
		t.Fatalf("pipeline accuracy = %v, want > 0.5", res.FinalAccuracy)
	}
	if res.Duration <= 0 {
		t.Fatal("no duration recorded")
	}
	if res.Network.Messages == 0 {
		t.Fatal("no network traffic recorded")
	}
}

func TestPipelineDeterministic(t *testing.T) {
	run := func() *Result {
		cfg := buildConfig(t, 3, 2, 2, 6, 1, 0)
		cfg.EvalEvery = 1
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Duration != b.Duration {
		t.Fatalf("durations differ: %v vs %v", a.Duration, b.Duration)
	}
	if len(a.Curve) != len(b.Curve) {
		t.Fatal("curve lengths differ")
	}
	for i := range a.Curve {
		if a.Curve[i] != b.Curve[i] {
			t.Fatalf("curve diverged at %d", i)
		}
	}
}

func TestPipelineTimingsRecorded(t *testing.T) {
	cfg := buildConfig(t, 3, 2, 2, 8, 1, 0)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Timings) == 0 {
		t.Fatal("no timings recorded")
	}
	for _, tm := range res.Timings {
		if tm.Sigma <= 0 {
			t.Fatalf("round %d sigma = %v", tm.Round, tm.Sigma)
		}
		if tm.Nu < 0 || tm.Nu > 1 {
			t.Fatalf("round %d nu = %v out of [0,1]", tm.Round, tm.Nu)
		}
		if got := tm.SigmaW + tm.SigmaP + tm.SigmaG; math.Abs(got-tm.Sigma) > 1e-6 {
			t.Fatalf("round %d decomposition %v != sigma %v", tm.Round, got, tm.Sigma)
		}
	}
	if res.MeanNu <= 0 {
		t.Fatalf("mean nu = %v, want positive with flag level 1", res.MeanNu)
	}
}

func TestFlagLevelZeroHasNoPipelineGain(t *testing.T) {
	// With ℓF = 0 the flag model IS the global model: devices wait for the
	// whole aggregation, so ν must be ~0.
	cfg := buildConfig(t, 3, 2, 2, 8, 0, 0)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanNu > 0.05 {
		t.Fatalf("flag level 0 mean nu = %v, want ~0", res.MeanNu)
	}
}

func TestDeeperFlagLevelIncreasesEfficiency(t *testing.T) {
	// Eq. (3)'s trade-off: moving the flag level away from the top (deeper)
	// reduces waiting and increases ν.
	nu := make([]float64, 2)
	for i, fl := range []int{0, 1} {
		cfg := buildConfig(t, 3, 2, 2, 10, fl, 0)
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		nu[i] = res.MeanNu
	}
	if nu[1] <= nu[0] {
		t.Fatalf("nu(flag=1)=%v not above nu(flag=0)=%v", nu[1], nu[0])
	}
}

func TestPipelineMergesStaleGlobals(t *testing.T) {
	// With flag level 1, devices begin round r+1 before global r arrives, so
	// correction-factor merges must occur.
	cfg := buildConfig(t, 3, 2, 2, 8, 1, 0)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MergedGlobals == 0 {
		t.Fatal("no correction-factor merges with flag level 1")
	}
}

func TestPipelineUnderPoisoning(t *testing.T) {
	// Paper-shape tree at 25% label-flip poisoning: the pipeline must keep
	// learning.
	cfg := buildConfig(t, 3, 4, 4, 25, 1, 16)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAccuracy < 0.45 {
		t.Fatalf("pipeline accuracy under poisoning = %v", res.FinalAccuracy)
	}
}

func TestPipelineQuorumSpeedsRounds(t *testing.T) {
	// φ < 1 lets leaders skip stragglers: virtual duration must shrink.
	full := buildConfig(t, 3, 4, 4, 6, 1, 0)
	full.Timing = DefaultTiming()
	full.Timing.TrainJitter = 2 // strong stragglers
	fast := full
	fast.Quorum = 0.5
	resFull, err := Run(full)
	if err != nil {
		t.Fatal(err)
	}
	resFast, err := Run(fast)
	if err != nil {
		t.Fatal(err)
	}
	if resFast.Duration >= resFull.Duration {
		t.Fatalf("quorum 0.5 duration %v not below full %v", resFast.Duration, resFull.Duration)
	}
}

func TestPipelineGlobalBRA(t *testing.T) {
	cfg := buildConfig(t, 3, 2, 2, 5, 1, 0)
	cfg.Global = step.Rule{BRA: aggregate.Median{}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curve) == 0 {
		t.Fatal("no curve")
	}
}

// TestPipelineQuorumInRange holds Quorum to [0,1]: every value out of it,
// NaN included, is an error naming the field.
func TestPipelineQuorumInRange(t *testing.T) {
	cfg := buildConfig(t, 3, 2, 2, 5, 1, 0)
	for _, q := range []float64{-0.1, 1.5, math.NaN()} {
		bad := cfg
		bad.Quorum = q
		if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "Quorum") {
			t.Errorf("Quorum %v: error %v, want one naming the field", q, err)
		}
	}
}

func TestPipelineValidation(t *testing.T) {
	cfg := buildConfig(t, 3, 2, 2, 5, 1, 0)
	leaderDown := func(level, cluster int) func(*Config) {
		return func(c *Config) {
			c.Faults = &fault.Plan{LeaderFailures: []fault.LeaderFailure{{Level: level, Cluster: cluster, FromRound: 1}}}
		}
	}
	for _, tc := range []struct {
		name  string
		tweak func(*Config)
		want  string // a substring of the error
	}{
		{"bottom flag level", func(c *Config) { c.FlagLevel = 2 }, "FlagLevel"}, // == bottom, out of the paper's {0..L-1}
		{"zero rounds", func(c *Config) { c.Rounds = 0 }, "Rounds"},
		{"partial unset", func(c *Config) { c.Partial = step.Rule{} }, "Partial rule"},
		{"partial both", func(c *Config) { c.Partial.CBA = consensus.Voting{} }, "Partial rule"},
		{"partial CBA", func(c *Config) { c.Partial = step.Rule{CBA: consensus.Voting{}} }, "Partial must be a BRA"},
		{"global unset", func(c *Config) { c.Global = step.Rule{} }, "Global rule"},
		{"global CBA without shards", func(c *Config) { c.ValidationShards = nil }, "ValidationShard"},
		{"leader failure at a negative level", leaderDown(-1, 0), "(-1, 0)"},
		{"leader failure at level = depth", leaderDown(3, 0), "(3, 0)"},
		{"leader failure at cluster = width", leaderDown(1, 2), "(1, 2)"},
		{"leader failure at a negative cluster", leaderDown(2, -1), "(2, -1)"},
		// The run fields the pipeline does not implement.
		{"partial by level", func(c *Config) { c.PartialByLevel = map[int]step.Rule{1: c.Partial} }, "PartialByLevel"},
		{"model attack", func(c *Config) { c.ModelAttack = attack.SignFlip{Scale: 3} }, "ModelAttack"},
		{"round callback", func(c *Config) { c.OnRound = func(core.RoundStat) {} }, "OnRound"},
		{"leader rotation", func(c *Config) { c.RotateLeaders = true }, "RotateLeaders"},
		{"churn", func(c *Config) { c.Churn.OfflineProb = 0.1 }, "Churn"},
		{"cohort", func(c *Config) { c.Cohort = 1 }, "Cohort"},
	} {
		bad := cfg
		tc.tweak(&bad)
		if _, err := Run(bad); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
	// A BRA Global needs no shards, and a leader failure inside the tree
	// passes.
	ok := cfg
	ok.Global, ok.ValidationShards = step.Rule{BRA: aggregate.Median{}}, nil
	leaderDown(2, 3)(&ok)
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestAdaptiveAlphaRules(t *testing.T) {
	a := AdaptiveAlpha{}
	// Staleness discount: fresher globals get larger α.
	if a.Alpha(0, 0) <= a.Alpha(1000, 0) {
		t.Fatal("α not decreasing in staleness")
	}
	// Relative-size discount: more representative flag models get smaller α.
	if a.Alpha(0, 0.1) <= a.Alpha(0, 0.9) {
		t.Fatal("α not decreasing in relative size")
	}
	// Bounds.
	for _, s := range []float64{0, 100, 1e6} {
		for _, rel := range []float64{-1, 0, 0.5, 1, 2} {
			v := a.Alpha(s, rel)
			if v <= 0 || v > 1 {
				t.Fatalf("α(%v, %v) = %v out of (0,1]", s, rel, v)
			}
		}
	}
}

func TestFixedAlpha(t *testing.T) {
	if FixedAlpha(0.3).Alpha(123, 0.5) != 0.3 {
		t.Fatal("FixedAlpha not constant")
	}
}

func TestPipelineWithLatencyModels(t *testing.T) {
	cfg := buildConfig(t, 3, 2, 2, 4, 1, 0)
	cfg.Latency = simnet.LogNormal{Base: 5, Sigma: 0.7}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	cfg.Latency = simnet.Uniform{Min: 1, Max: 20}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPipeline8Devices(b *testing.B) {
	cfg := buildConfig(b, 3, 2, 2, 5, 1, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func TestPipelineCrashedDevicesWithQuorum(t *testing.T) {
	// One crashed device per bottom cluster; φ=0.75 lets the remaining three
	// members carry the round (Assumption 2 under failure injection).
	cfg := buildConfig(t, 3, 4, 4, 6, 1, 0)
	cfg.Quorum = 0.75
	cfg.Faults = &fault.Plan{CrashFromRound: map[int]int{}}
	for i := 0; i < 64; i += 4 {
		cfg.Faults.CrashFromRound[i+3] = 0 // last member of each cluster
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curve) == 0 || res.FinalAccuracy <= 0.1 {
		t.Fatalf("crashed-device run failed: %+v", res.FinalAccuracy)
	}
}

func TestPipelineCrashedDevicesWithoutQuorumStalls(t *testing.T) {
	// With φ=1 a single crashed member starves its cluster: the simulation
	// must drain before completing all rounds. A faulted run that drains is
	// degraded operation, so Run reports what completed, not an error.
	cfg := buildConfig(t, 3, 2, 2, 6, 1, 0)
	cfg.Faults = &fault.Plan{CrashFromRound: map[int]int{0: 0}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletedRounds >= cfg.Rounds {
		t.Fatalf("stalled run completed %d of %d rounds", res.CompletedRounds, cfg.Rounds)
	}
}

func TestRenderTimeline(t *testing.T) {
	timings := []RoundTiming{
		{Round: 0, SigmaW: 50, SigmaP: 10, SigmaG: 40, Sigma: 100, Nu: 0.5},
		{Round: 1, SigmaW: 80, SigmaP: 0, SigmaG: 20, Sigma: 100, Nu: 0.2},
	}
	out := RenderTimeline(timings, 40)
	if !strings.Contains(out, "round   0") || !strings.Contains(out, "ν=0.50") {
		t.Fatalf("timeline missing rows: %q", out)
	}
	if !strings.Contains(out, "#") || !strings.Contains(out, ".") {
		t.Fatalf("timeline missing phase glyphs: %q", out)
	}
	if RenderTimeline(nil, 40) != "(no timing data)\n" {
		t.Fatal("empty timeline not handled")
	}
}

func TestPipelineBandwidthSlowsGlobalPhase(t *testing.T) {
	// Choke the links into the top cluster: σ_g (collection at the top) must
	// grow relative to an unconstrained run.
	base := buildConfig(t, 3, 2, 2, 8, 1, 0)
	fast, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	choked := base
	topNode := simnet.NodeID(base.Tree.NumDevices()) // first allocated cluster id = the top
	// ~386 ms extra per 19 285-byte model into the top.
	choked.Latency = chokedLinks{Fixed: 1, to: topNode, rate: 50}
	slow, err := Run(choked)
	if err != nil {
		t.Fatal(err)
	}
	meanSg := func(r *Result) float64 {
		s := 0.0
		for _, tm := range r.Timings {
			s += tm.SigmaG
		}
		return s / float64(len(r.Timings))
	}
	if meanSg(slow) <= meanSg(fast) {
		t.Fatalf("choked top σ_g %v not above unconstrained %v", meanSg(slow), meanSg(fast))
	}
}

// chokedLinks is simnet.Fixed whose links into one node also charge a
// message's volume at rate bytes per virtual ms.
type chokedLinks struct {
	simnet.Fixed
	to   simnet.NodeID
	rate float64
}

func (c chokedLinks) SizeDelay(volume int64, _, to simnet.NodeID) float64 {
	if to != c.to {
		return 0
	}
	return float64(volume) / c.rate
}

func TestCollectTimeoutCarriesCrashedClusters(t *testing.T) {
	// With a crashed member and φ=1, a pure-quorum run stalls — but the
	// Algorithm 4 timeout lets leaders aggregate what they have.
	cfg := buildConfig(t, 3, 2, 2, 6, 1, 0)
	cfg.Faults = &fault.Plan{CrashFromRound: map[int]int{0: 0}}
	cfg.CollectTimeout = 400
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curve) == 0 {
		t.Fatal("no rounds completed with timeout")
	}
}

func TestCollectTimeoutSpeedsStragglerRounds(t *testing.T) {
	base := buildConfig(t, 3, 4, 4, 6, 1, 0)
	base.Timing = DefaultTiming()
	base.Timing.TrainJitter = 3 // severe stragglers
	slow, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	timed := base
	timed.CollectTimeout = 150 // cut off the long tail
	fast, err := Run(timed)
	if err != nil {
		t.Fatal(err)
	}
	if fast.Duration >= slow.Duration {
		t.Fatalf("timeout duration %v not below pure-quorum %v", fast.Duration, slow.Duration)
	}
}

// TestConfigShadowsNoRunField: a Config field named like one of the embedded
// core.Config's would shadow it, so the engine would read one value and
// core's Validate the other.
func TestConfigShadowsNoRunField(t *testing.T) {
	run := reflect.TypeFor[core.Config]()
	own := reflect.TypeFor[Config]()
	for i := 0; i < own.NumField(); i++ {
		f := own.Field(i)
		if f.Anonymous {
			continue
		}
		if _, ok := run.FieldByName(f.Name); ok {
			t.Errorf("pipeline.Config.%s shadows core.Config.%s", f.Name, f.Name)
		}
	}
}
