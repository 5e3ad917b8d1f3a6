package pipeline

import (
	"errors"
	"strings"
	"testing"

	"abdhfl/internal/aggregate"
	"abdhfl/internal/fault"
	"abdhfl/internal/telemetry"
	"abdhfl/internal/tensor"
)

// TestPipelineTimeoutQuorumTable drives the Algorithm-4 timeout/quorum
// machinery through its distinct regimes: stragglers cut off by the legacy
// first-arrival timeout, crashed members carried by the fault-plan deadline,
// omission-Byzantine uploads, a failed mid-tree leader, and total transport
// loss (degraded-but-terminating operation).
func TestPipelineTimeoutQuorumTable(t *testing.T) {
	cases := []struct {
		name  string
		build func(t *testing.T) Config
		check func(t *testing.T, res *Result, err error)
	}{
		{
			// No fault plan: the legacy path arms the deadline at a leader's
			// first arrival. Severe training jitter pushes stragglers past it,
			// so some aggregations must close below quorum, and the cut-off
			// must show up as reduced waiting time σ_w.
			name: "straggler-timeout-subquorum",
			build: func(t *testing.T) Config {
				cfg := buildConfig(t, 3, 4, 4, 6, 1, 0)
				cfg.Timing = DefaultTiming()
				cfg.Timing.TrainJitter = 3
				cfg.CollectTimeout = 150
				return cfg
			},
			check: func(t *testing.T, res *Result, err error) {
				if err != nil {
					t.Fatal(err)
				}
				if res.SubQuorum == 0 {
					t.Fatal("no sub-quorum aggregations despite stragglers past the timeout")
				}
				if res.CompletedRounds != 6 {
					t.Fatalf("completed %d of 6 rounds", res.CompletedRounds)
				}
				for _, tm := range res.Timings {
					if tm.SigmaW < 0 {
						t.Fatalf("round %d sigma_w = %v", tm.Round, tm.SigmaW)
					}
				}
			},
		},
		{
			// φ=1 with a fault-plan crash would stall a pure-quorum run; the
			// collect timeout must carry the crashed member's cluster below
			// quorum instead.
			name: "crash-carried-by-timeout",
			build: func(t *testing.T) Config {
				cfg := buildConfig(t, 3, 2, 2, 6, 1, 0)
				cfg.CollectTimeout = 300
				cfg.Faults = &fault.Plan{Seed: 5, CrashFromRound: map[int]int{0: 0}}
				return cfg
			},
			check: func(t *testing.T, res *Result, err error) {
				if err != nil {
					t.Fatal(err)
				}
				if res.SubQuorum == 0 {
					t.Fatal("crashed member never forced a sub-quorum aggregation")
				}
				if res.CompletedRounds == 0 {
					t.Fatal("no rounds completed")
				}
			},
		},
		{
			// An omission-Byzantine device trains but withholds every upload;
			// with φ=0.5 its cluster still closes on the honest member, and the
			// run must account each withheld upload.
			name: "omission-byzantine-accounted",
			build: func(t *testing.T) Config {
				cfg := buildConfig(t, 3, 2, 2, 6, 1, 0)
				cfg.Quorum = 0.5
				cfg.CollectTimeout = 300
				cfg.Faults = &fault.Plan{Seed: 5, OmitProb: map[int]float64{0: 1.0}}
				return cfg
			},
			check: func(t *testing.T, res *Result, err error) {
				if err != nil {
					t.Fatal(err)
				}
				if res.Omitted == 0 {
					t.Fatal("omission device's withheld uploads not counted")
				}
				if res.CompletedRounds != 6 {
					t.Fatalf("completed %d of 6 rounds with quorum 0.5", res.CompletedRounds)
				}
			},
		},
		{
			// A failed level-1 leader starves half the tree from round 1 on;
			// with full quorum the top can only proceed by timing out below it
			// — sub-quorum aggregations over the healthy half keep forming
			// globals.
			name: "leader-failure-degrades",
			build: func(t *testing.T) Config {
				cfg := buildConfig(t, 3, 2, 2, 5, 1, 0)
				cfg.CollectTimeout = 300
				cfg.Faults = &fault.Plan{
					Seed:           5,
					LeaderFailures: []fault.LeaderFailure{{Level: 1, Cluster: 0, FromRound: 1}},
				}
				return cfg
			},
			check: func(t *testing.T, res *Result, err error) {
				if err != nil {
					t.Fatal(err)
				}
				if res.CompletedRounds == 0 {
					t.Fatal("no rounds survived the leader failure")
				}
				if res.SubQuorum == 0 {
					t.Fatal("top never closed below quorum despite a starved subtree")
				}
			},
		},
		{
			// The top is a cluster like any other: a failed top leader
			// collects and forms nothing from its round on, so the run stops
			// at the rounds formed before it, abandons the top's next
			// collection and still returns.
			name: "top-leader-failure-stops-globals",
			build: func(t *testing.T) Config {
				cfg := buildConfig(t, 3, 2, 2, 5, 1, 0)
				cfg.CollectTimeout = 300
				cfg.Faults = &fault.Plan{LeaderFailures: []fault.LeaderFailure{{Level: 0, Cluster: 0, FromRound: 2}}}
				return cfg
			},
			check: func(t *testing.T, res *Result, err error) {
				if err != nil {
					t.Fatal(err)
				}
				if res.CompletedRounds != 2 || res.Abandoned != 1 {
					t.Fatalf("completed %d rounds with %d abandoned collections, want 2 and 1", res.CompletedRounds, res.Abandoned)
				}
			},
		},
		{
			// Total transport loss: every message dropped. Nothing can
			// complete, but the run must terminate cleanly — deadlines expire,
			// retries back off, collections are abandoned, and the result
			// reports the degradation instead of erroring or hanging.
			name: "total-loss-abandons",
			build: func(t *testing.T) Config {
				cfg := buildConfig(t, 3, 2, 2, 3, 1, 0)
				cfg.CollectTimeout = 100
				cfg.Faults = &fault.Plan{Seed: 5, Drop: 1.0}
				return cfg
			},
			check: func(t *testing.T, res *Result, err error) {
				if err != nil {
					t.Fatal(err)
				}
				if res.CompletedRounds != 0 {
					t.Fatalf("completed %d rounds with 100%% loss", res.CompletedRounds)
				}
				if res.Abandoned == 0 {
					t.Fatal("no collections abandoned despite total loss")
				}
				if res.Network.Dropped == 0 {
					t.Fatal("drops not accounted in network stats")
				}
			},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(tc.build(t))
			tc.check(t, res, err)
		})
	}
}

// TestPipelineDuplicatesNeverDoubleFill: with heavy duplication and φ=1,
// dedup at every consumer — leaders per (round, contributor), devices per
// formed global — must make duplication content-neutral: the run still waits
// for each distinct member, merges each global once, and learns like the
// fault-free run.
func TestPipelineDuplicatesNeverDoubleFill(t *testing.T) {
	base, err := Run(buildConfig(t, 3, 2, 2, 5, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	cfg := buildConfig(t, 3, 2, 2, 5, 1, 0)
	cfg.CollectTimeout = 500
	cfg.Faults = &fault.Plan{Seed: 9, Duplicate: 0.9}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Network.Duplicated == 0 {
		t.Fatal("no duplicates recorded at 90% duplication")
	}
	if res.CompletedRounds != 5 {
		t.Fatalf("completed %d of 5 rounds", res.CompletedRounds)
	}
	if diff := res.FinalAccuracy - base.FinalAccuracy; diff < -0.05 || diff > 0.05 {
		t.Fatalf("duplication distorted learning: %v vs fault-free %v",
			res.FinalAccuracy, base.FinalAccuracy)
	}
}

// TestPipelineFaultedDeterministic: the same plan and seed must reproduce the
// degraded run exactly, including its fault accounting.
func TestPipelineFaultedDeterministic(t *testing.T) {
	run := func() *Result {
		cfg := buildConfig(t, 3, 2, 2, 5, 1, 0)
		cfg.Quorum = 0.5
		cfg.CollectTimeout = 250
		cfg.Faults = fault.Merge(
			fault.Lossy(21, 0.15, 0.1, 15),
			fault.CrashDevices(21, cfg.Tree.NumDevices(), 1, 1),
		)
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Duration != b.Duration || a.CompletedRounds != b.CompletedRounds ||
		a.SubQuorum != b.SubQuorum || a.Abandoned != b.Abandoned ||
		a.Omitted != b.Omitted || a.Network != b.Network ||
		a.FinalAccuracy != b.FinalAccuracy {
		t.Fatalf("faulted runs diverged:\n%+v\n%+v", a, b)
	}
}

// TestPipelineBackoffValidation: nonsense timeout knobs must be rejected.
func TestPipelineBackoffValidation(t *testing.T) {
	cfg := buildConfig(t, 3, 2, 2, 3, 1, 0)
	cfg.TimeoutBackoff = 0.5
	if _, err := Run(cfg); err == nil {
		t.Fatal("backoff below 1 accepted")
	}
	cfg = buildConfig(t, 3, 2, 2, 3, 1, 0)
	cfg.TimeoutRetries = -1
	if _, err := Run(cfg); err == nil {
		t.Fatal("negative retries accepted")
	}
}

// failingRule errors on its nth AggregateInto and is the inner rule otherwise.
type failingRule struct {
	aggregate.Aggregator
	calls *int
	nth   int
}

func (f failingRule) AggregateInto(dst tensor.Vector, s *aggregate.Scratch, u []tensor.Vector) error {
	*f.calls++
	if *f.calls == f.nth {
		return errors.New("rule blew up")
	}
	return f.Aggregator.AggregateInto(dst, s, u)
}

// TestStepErrorIsReported: a step that fails drops its cluster's round — the
// engine's policy — but no longer vanishes: it is counted per level, the
// first one is in the Result, and when it starves a run that cannot absorb
// it the run's error names it as the cause.
func TestStepErrorIsReported(t *testing.T) {
	calls := 0
	cfg := buildConfig(t, 3, 2, 2, 4, 1, 0)
	cfg.Partial.BRA = failingRule{cfg.Partial.BRA, &calls, 3}
	cfg.Quorum = 0.5 // the parent proceeds on the sibling's partial
	cfg.Telemetry = telemetry.New()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletedRounds != 4 {
		t.Fatalf("completed %d of 4 rounds", res.CompletedRounds)
	}
	if res.StepError == nil || !strings.Contains(res.StepError.Error(), "rule blew up") || !strings.Contains(res.StepError.Error(), "level 2") {
		t.Fatalf("StepError = %v", res.StepError)
	}
	if got := cfg.Telemetry.Counter(`abdhfl_step_errors_total{engine="pipeline",level="2"}`).Value(); got != 1 {
		t.Fatalf("level-2 step error counter = %d, want 1", got)
	}

	calls = 0
	cfg = buildConfig(t, 3, 2, 2, 4, 1, 0)
	cfg.Partial.BRA = failingRule{cfg.Partial.BRA, &calls, 3}
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "drained") || !strings.Contains(err.Error(), "rule blew up") {
		t.Fatalf("a full-quorum run starved by a failed step must say so: %v", err)
	}
}
