package step

import (
	"testing"

	"abdhfl/internal/aggregate"
	"abdhfl/internal/consensus"
	"abdhfl/internal/nn"
	"abdhfl/internal/rng"
	"abdhfl/internal/telemetry"
	"abdhfl/internal/tensor"
	"abdhfl/internal/trace"
)

type telemetryDecision = telemetry.FilterDecision

// sink and span keep the measured work from being optimised away.
var (
	sink int
	span trace.Span
)

// The step's allocation budget, with everything attached — registry, an
// OnFilter consumer, a tracer — and the stepper warm. It holds under -race
// too: the evaluation pool behind the validators is not a sync.Pool, whose
// entries the detector drops at random.

// TestBRAStepAllocationFree: a whole BRA step — the rule, the verdict, the
// counters, the callback, the span an engine would build from it — is zero
// allocations.
func TestBRAStepAllocationFree(t *testing.T) {
	f := newFixture(t, 6)
	f.obs.onFilter = func(d telemetryDecision) { sink += len(d.Kept) + len(d.Discarded) }
	for _, bra := range []aggregate.Aggregator{aggregate.NewMultiKrum(0.25), aggregate.Median{}, aggregate.CenteredClipping{}} {
		st := NewStepper(f.obs, 1, nn.NewEvalPool(f.sizes...), false)
		rule, name := Rule{BRA: bra}, bra.Name()
		in := Input{Level: 1, Cluster: 2, Round: 3, Vecs: f.vecs, IDs: f.ids, Dst: tensor.NewVector(len(f.vecs[0]))}
		run := func() {
			_, v, _, err := st.Aggregate(rule, in)
			if err != nil {
				t.Fatal(err)
			}
			kept, filtered := v.Counts()
			span = trace.AggregateSpan(in.Round, in.Level, in.Cluster, 1, 0, 1, name, 8, kept, filtered)
		}
		run()
		if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
			t.Errorf("%s step allocates %.1f objects with a warm stepper, want 0", bra.Name(), allocs)
		}
	}
}

// TestVotingStepAddsNoAllocation: the protocols allocate their own ballots
// and tallies, so a voting step cannot be zero — but the step must add
// nothing to what a bare AgreeInto over a prebuilt context costs: no
// context, validator closure, Byzantine map, decision vector, verdict or
// callback garbage — and no tagged rule name per step.
func TestVotingStepAddsNoAllocation(t *testing.T) {
	f := newFixture(t, 4)
	f.obs.onFilter = func(d telemetryDecision) { sink += len(d.Kept) + len(d.Discarded) }
	st := NewStepper(f.obs, 1, nn.NewEvalPool(f.sizes...), false)
	rule := Rule{CBA: consensus.Voting{}}
	r := rng.New(2)
	in := Input{Round: 3, Vecs: f.vecs, IDs: f.ids, Dst: tensor.NewVector(len(f.vecs[0])), Rand: r, Shards: f.data, Byzantine: map[int]bool{101: true}}
	stepRun := func() {
		if _, _, _, err := st.Aggregate(rule, in); err != nil {
			t.Fatal(err)
		}
	}
	bare := NewStepper(nil, 1, nn.NewEvalPool(f.sizes...), false)
	bare.in = in
	ctx := &consensus.Context{Members: 4, Byzantine: map[int]bool{1: true}, Validator: bare.shardFn, Rand: r, Round: 3}
	dst := tensor.NewVector(len(f.vecs[0]))
	bareRun := func() {
		if _, err := rule.CBA.AgreeInto(dst, ctx, f.vecs); err != nil {
			t.Fatal(err)
		}
	}
	stepRun()
	bareRun()
	if got, want := testing.AllocsPerRun(20, stepRun), testing.AllocsPerRun(20, bareRun); got != want {
		t.Errorf("a voting step allocates %.1f objects, the bare protocol %.1f: the step must add none", got, want)
	}
}
