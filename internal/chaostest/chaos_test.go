package chaostest_test

import (
	"testing"
	"time"

	"abdhfl"
	"abdhfl/internal/aggregate"
	"abdhfl/internal/chaostest"
	"abdhfl/internal/consensus"
	"abdhfl/internal/core"
	"abdhfl/internal/fault"
	"abdhfl/internal/nn"
	"abdhfl/internal/node"
	"abdhfl/internal/pipeline"
	"abdhfl/internal/trace"
)

var localCfg = nn.TrainConfig{LearningRate: 0.1, BatchSize: 16, Iterations: 5}

// devicePlans are the device and transport fault modes every engine under
// chaos takes: transport loss, duplication and reordering, permanent
// crashes, transient churn, and one omission-Byzantine device.
func devicePlans(seed uint64, devices int) []*fault.Plan {
	return []*fault.Plan{
		fault.Lossy(seed, 0.10, 0.05, 10),
		fault.CrashDevices(seed, devices, devices/8, 2),
		fault.ChurnDevices(seed+1, devices, devices/8, 1, 3),
		{OmitProb: map[int]float64{1: 0.5}},
	}
}

// chaosPlan composes every fault mode the taxonomy defines: the device
// plans plus a failed bottom-level leader, which only the pipeline
// simulates (node rejects it: a real leader process is running or not).
func chaosPlan(seed uint64, devices int) *fault.Plan {
	return fault.Merge(append(devicePlans(seed, devices),
		&fault.Plan{LeaderFailures: []fault.LeaderFailure{{Level: 2, Cluster: 0, FromRound: 2}}})...)
}

func pipelineOutcome(fx *chaostest.Fixture, seed uint64, rounds int) chaostest.Outcome {
	flight := trace.NewFlightRecorder(0)
	cfg := pipeline.Config{
		Config: core.Config{
			Tree:             fx.Tree,
			Rounds:           rounds,
			Quorum:           0.5,
			Local:            localCfg,
			Partial:          core.LevelRule{BRA: aggregate.NewMultiKrum(0.25)},
			Global:           core.LevelRule{CBA: consensus.Voting{}},
			ClientData:       fx.Shards,
			TestData:         fx.Test,
			ValidationShards: fx.ValShards,
			Seed:             seed,
			EvalEvery:        1,
		},
		Flight:         flight,
		FlagLevel:      1,
		CollectTimeout: 300,
		Faults:         chaosPlan(seed, fx.Tree.NumDevices()),
	}
	res, err := pipeline.Run(cfg)
	o := chaostest.Outcome{Name: "pipeline", Err: err, ConfiguredRounds: rounds, AccuracyFloor: 0.15, Flight: flight}
	if res != nil {
		o.CompletedRounds = res.CompletedRounds
		o.FinalAccuracy = res.FinalAccuracy
		for _, tm := range res.Timings {
			o.Sigmas = append(o.Sigmas, chaostest.SigmaRound{
				W: tm.SigmaW, P: tm.SigmaP, G: tm.SigmaG, Total: tm.Sigma, Nu: tm.Nu,
			})
		}
	}
	return o
}

// TestChaosPipeline sweeps seeds through the full fault taxonomy on the
// discrete-event engine: no deadlock, no panic, coherent round accounting,
// consistent σ decomposition.
func TestChaosPipeline(t *testing.T) {
	fx := chaostest.NewFixture(t, 7, 3, 2, 2)
	chaostest.Sweep(t, []uint64{1, 2, 3, 4}, 120*time.Second, func(seed uint64) chaostest.Outcome {
		return pipelineOutcome(fx, seed, 5)
	})
}

// TestChaosPipelineDeterministic: same seed, same plan, bit-identical
// degraded run — the property that makes chaos results reportable.
func TestChaosPipelineDeterministic(t *testing.T) {
	fx := chaostest.NewFixture(t, 7, 3, 2, 2)
	a := pipelineOutcome(fx, 3, 5)
	b := pipelineOutcome(fx, 3, 5)
	if a.Err != nil || b.Err != nil {
		t.Fatalf("chaos runs errored: %v / %v", a.Err, b.Err)
	}
	if a.CompletedRounds != b.CompletedRounds || a.FinalAccuracy != b.FinalAccuracy {
		t.Fatalf("chaos run not deterministic: %+v vs %+v", a, b)
	}
}

// TestChaosNode drives the node engine over loopback through the device
// plans: real crashed and churned devices, dropped, duplicated and delayed
// frames, wall-clock collect deadlines, scheduling nondeterminism — the
// invariants must hold on every interleaving.
func TestChaosNode(t *testing.T) {
	s := abdhfl.Scenario{
		Levels: 3, ClusterSize: 2, TopNodes: 2,
		Rounds: 4, LocalIters: 5, BatchSize: 16, LearningRate: 0.1,
		SamplesPerClient: 60, TestSamples: 400, ValidationSamples: 300,
		Quorum: 0.5, EvalEvery: 1, Seed: 9,
	}.WithDefaults()
	m, err := abdhfl.Build(s)
	if err != nil {
		t.Fatal(err)
	}
	chaostest.Sweep(t, []uint64{1, 2}, 120*time.Second, func(seed uint64) chaostest.Outcome {
		res, err := node.RunCluster(node.ClusterOpts{
			Materials:  m,
			Seed:       seed,
			Backend:    node.BackendLoopback,
			Plan:       fault.Merge(devicePlans(seed, m.Tree.NumDevices())...),
			StallAfter: 100 * time.Millisecond,
		})
		o := chaostest.Outcome{Name: "node", Err: err, ConfiguredRounds: s.Rounds, AccuracyFloor: 0.15}
		if res != nil {
			o.CompletedRounds = len(res.Root.Curve)
			o.FinalAccuracy = res.Root.FinalAccuracy
		}
		return o
	})
}

// TestChaosCore exercises the synchronous engine's native failure knobs
// (availability churn and quorum subsampling) under the same invariants.
func TestChaosCore(t *testing.T) {
	fx := chaostest.NewFixture(t, 11, 3, 2, 2)
	chaostest.Sweep(t, []uint64{1, 2}, 120*time.Second, func(seed uint64) chaostest.Outcome {
		cfg := core.Config{
			Tree:       fx.Tree,
			Rounds:     4,
			Local:      localCfg,
			Partial:    core.LevelRule{BRA: aggregate.NewMultiKrum(0.25)},
			Global:     core.LevelRule{BRA: aggregate.Median{}},
			ClientData: fx.Shards,
			TestData:   fx.Test,
			Seed:       seed,
			EvalEvery:  1,
			Quorum:     0.75,
			Churn:      core.ChurnModel{OfflineProb: 0.15},
		}
		res, err := core.RunHFL(cfg)
		o := chaostest.Outcome{Name: "core", Err: err, ConfiguredRounds: cfg.Rounds, AccuracyFloor: 0.2}
		if res != nil {
			o.CompletedRounds = cfg.Rounds
			o.FinalAccuracy = res.FinalAccuracy
		}
		return o
	})
}
