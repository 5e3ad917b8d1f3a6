package chaostest_test

import (
	"testing"
	"time"

	"abdhfl/internal/aggregate"
	"abdhfl/internal/chaostest"
	"abdhfl/internal/consensus"
	"abdhfl/internal/core"
	"abdhfl/internal/pipeline"
	"abdhfl/internal/trace"
)

// abaPipelineOutcome is pipelineOutcome with the randomized ABA replacing
// validation-voting at the top level — same fault plan, same invariants.
func abaPipelineOutcome(fx *chaostest.Fixture, seed uint64, rounds int) chaostest.Outcome {
	flight := trace.NewFlightRecorder(0)
	cfg := pipeline.Config{
		Config: core.Config{
			Tree:             fx.Tree,
			Rounds:           rounds,
			Quorum:           0.5,
			Local:            localCfg,
			Partial:          core.LevelRule{BRA: aggregate.NewMultiKrum(0.25)},
			Global:           core.LevelRule{CBA: consensus.ABA{}},
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
	o := chaostest.Outcome{Name: "pipeline-aba", Err: err, ConfiguredRounds: rounds, AccuracyFloor: 0.15, Flight: flight}
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

// TestChaosPipelineABA runs the randomized ABA at the pipeline's top level
// through the full fault taxonomy (loss, duplication, crashes, churn,
// omission, a failed leader): no deadlock, coherent rounds, σ-accounting
// holds — the same invariants the voting sweep pins.
func TestChaosPipelineABA(t *testing.T) {
	fx := chaostest.NewFixture(t, 7, 3, 2, 2)
	chaostest.Sweep(t, []uint64{1, 2, 3}, 120*time.Second, func(seed uint64) chaostest.Outcome {
		return abaPipelineOutcome(fx, seed, 5)
	})
}

// TestChaosPipelineABADeterministic: same seed, same chaos plan, the same
// degraded run bit for bit — randomized consensus included (the coin is a
// label derivation, not an entropy source).
func TestChaosPipelineABADeterministic(t *testing.T) {
	fx := chaostest.NewFixture(t, 7, 3, 2, 2)
	a := abaPipelineOutcome(fx, 3, 5)
	b := abaPipelineOutcome(fx, 3, 5)
	if a.Err != nil || b.Err != nil {
		t.Fatalf("chaos runs errored: %v / %v", a.Err, b.Err)
	}
	if a.CompletedRounds != b.CompletedRounds || a.FinalAccuracy != b.FinalAccuracy {
		t.Fatalf("aba chaos run not deterministic: %+v vs %+v", a, b)
	}
}

// TestChaosCoreABA exercises the synchronous engine with ABA as the global
// rule under availability churn and quorum subsampling.
func TestChaosCoreABA(t *testing.T) {
	fx := chaostest.NewFixture(t, 11, 3, 2, 2)
	chaostest.Sweep(t, []uint64{1, 2}, 120*time.Second, func(seed uint64) chaostest.Outcome {
		cfg := core.Config{
			Tree:             fx.Tree,
			Rounds:           4,
			Local:            localCfg,
			Partial:          core.LevelRule{BRA: aggregate.NewMultiKrum(0.25)},
			Global:           core.LevelRule{CBA: consensus.ABA{}},
			ClientData:       fx.Shards,
			TestData:         fx.Test,
			ValidationShards: fx.ValShards,
			Seed:             seed,
			EvalEvery:        1,
			Quorum:           0.75,
			Churn:            core.ChurnModel{OfflineProb: 0.15},
		}
		res, err := core.RunHFL(cfg)
		o := chaostest.Outcome{Name: "core-aba", Err: err, ConfiguredRounds: cfg.Rounds, AccuracyFloor: 0.2}
		if res != nil {
			o.CompletedRounds = cfg.Rounds
			o.FinalAccuracy = res.FinalAccuracy
		}
		return o
	})
}

// TestCoreABAMatchesVotingZeroFault pins the protocol equivalence end to
// end: with no faults injected, every top member holds the identical ballot
// set, ABA validity forces Voting's decision, and the two engines' final
// global parameter vectors agree bit for bit.
func TestCoreABAMatchesVotingZeroFault(t *testing.T) {
	fx := chaostest.NewFixture(t, 13, 3, 2, 2)
	run := func(cba consensus.Protocol) []float64 {
		res, err := core.RunHFL(core.Config{
			Tree:             fx.Tree,
			Rounds:           3,
			Local:            localCfg,
			Partial:          core.LevelRule{BRA: aggregate.NewMultiKrum(0.25)},
			Global:           core.LevelRule{CBA: cba},
			ClientData:       fx.Shards,
			TestData:         fx.Test,
			ValidationShards: fx.ValShards,
			Seed:             31,
			EvalEvery:        3,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.FinalParams == nil {
			t.Fatal("missing final params")
		}
		return res.FinalParams
	}
	vp := run(consensus.Voting{})
	ap := run(consensus.ABA{})
	if len(vp) != len(ap) {
		t.Fatalf("param dims differ: voting=%d aba=%d", len(vp), len(ap))
	}
	for i := range vp {
		if vp[i] != ap[i] {
			t.Fatalf("params diverge at coordinate %d: voting=%v aba=%v", i, vp[i], ap[i])
		}
	}
}

// TestCoreABAWorkersInvariant pins the determinism contract on the full
// engine: RunHFL with the randomized ABA at the top produces bit-identical
// parameters for every Workers setting.
func TestCoreABAWorkersInvariant(t *testing.T) {
	fx := chaostest.NewFixture(t, 17, 3, 2, 2)
	run := func(workers int) []float64 {
		res, err := core.RunHFL(core.Config{
			Tree:             fx.Tree,
			Rounds:           2,
			Local:            localCfg,
			Partial:          core.LevelRule{BRA: aggregate.NewMultiKrum(0.25)},
			Global:           core.LevelRule{CBA: consensus.ABA{}},
			ClientData:       fx.Shards,
			TestData:         fx.Test,
			ValidationShards: fx.ValShards,
			Seed:             53,
			EvalEvery:        2,
			Workers:          workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.FinalParams
	}
	base := run(1)
	for _, w := range []int{2, 4, 8} {
		got := run(w)
		for i := range base {
			if base[i] != got[i] {
				t.Fatalf("workers %d: params diverge at coordinate %d", w, i)
			}
		}
	}
}
