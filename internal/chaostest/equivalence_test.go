package chaostest_test

import (
	"testing"

	"abdhfl/internal/aggregate"
	"abdhfl/internal/chaostest"
	"abdhfl/internal/core"
	"abdhfl/internal/pipeline"
	"abdhfl/internal/simnet"
)

// TestPipelineMatchesCoreBitForBit pins the cross-engine contract: with the
// asynchrony turned off — zero link latency, zero duration jitter, quorum 1,
// flag level 0 (the flag model IS the global model), the same BRA rules —
// the discrete-event pipeline must execute exactly the synchronous round
// schedule, and both engines draw identical SGD streams
// (root→"round-R"→"device-D"). The final global parameter vectors must agree
// bit for bit; any drift means one engine's collection order, RNG
// derivation, or merge semantics silently diverged.
func TestPipelineMatchesCoreBitForBit(t *testing.T) {
	fx := chaostest.NewFixture(t, 13, 3, 2, 2)
	const seed = 42
	const rounds = 4
	local := localCfg

	run := core.Config{
		Tree:       fx.Tree,
		Rounds:     rounds,
		Local:      local,
		Partial:    core.LevelRule{BRA: aggregate.NewMultiKrum(0.25)},
		Global:     core.LevelRule{BRA: aggregate.Median{}},
		ClientData: fx.Shards,
		TestData:   fx.Test,
		Seed:       seed,
		EvalEvery:  rounds,
	}
	cres, err := core.RunHFL(run)
	if err != nil {
		t.Fatal(err)
	}

	pres, err := pipeline.Run(pipeline.Config{
		Config:    run,
		FlagLevel: 0,
		Latency:   simnet.Fixed(0),
		// Non-zero bases keep the Timing struct from being replaced by the
		// jittered default; zero jitter keeps every duration draw out of the
		// RNG and every cluster in lockstep.
		Timing: pipeline.Timing{TrainBase: 100, AggBase: 10},
	})
	if err != nil {
		t.Fatal(err)
	}

	if cres.FinalParams == nil || pres.FinalParams == nil {
		t.Fatalf("missing final params: core=%v pipeline=%v", cres.FinalParams == nil, pres.FinalParams == nil)
	}
	if len(cres.FinalParams) != len(pres.FinalParams) {
		t.Fatalf("param dims differ: core=%d pipeline=%d", len(cres.FinalParams), len(pres.FinalParams))
	}
	for i := range cres.FinalParams {
		if cres.FinalParams[i] != pres.FinalParams[i] {
			t.Fatalf("params diverge at coordinate %d: core=%v pipeline=%v",
				i, cres.FinalParams[i], pres.FinalParams[i])
		}
	}
	if cres.FinalAccuracy != pres.FinalAccuracy {
		t.Fatalf("accuracies differ on identical params: core=%v pipeline=%v",
			cres.FinalAccuracy, pres.FinalAccuracy)
	}
}
