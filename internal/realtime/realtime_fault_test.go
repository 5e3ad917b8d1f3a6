package realtime

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"abdhfl/internal/aggregate"
	"abdhfl/internal/fault"
	"abdhfl/internal/telemetry"
	"abdhfl/internal/tensor"
)

// TestRealtimeCrashedMemberDoesNotDeadlockLeader is the liveness regression
// for real goroutine crashes: a device whose goroutine exits mid-protocol
// (fail-stop, not a polite skip) must never wedge its leader. Quorum plus the
// wall-clock collect timeout have to carry every remaining round. Run under
// -race via the Makefile race target.
func TestRealtimeCrashedMemberDoesNotDeadlockLeader(t *testing.T) {
	cfg := buildConfig(t, 3, 2, 2, 8, 1, 0)
	cfg.Quorum = 0.5
	cfg.CollectTimeout = 200 * time.Millisecond
	// Device 0 never starts; device 5 crashes from round 2 on. Both bottom
	// clusters lose a member at some point.
	cfg.Faults = &fault.Plan{Seed: 3, CrashFromRound: map[int]int{0: 0, 5: 2}}
	res := runWithTimeout(t, cfg)
	if res.CompletedRounds == 0 {
		t.Fatal("no rounds completed around the crashed members")
	}
	if res.CompletedRounds > cfg.Rounds {
		t.Fatalf("completed %d of %d configured rounds", res.CompletedRounds, cfg.Rounds)
	}
	if res.FinalAccuracy <= 0 {
		t.Fatal("no accuracy recorded")
	}
}

// TestRealtimeChurnRejoin: a churned device must sit out its interval and
// then resume contributing — the run completes all rounds and still learns.
func TestRealtimeChurnRejoin(t *testing.T) {
	cfg := buildConfig(t, 3, 2, 2, 8, 1, 0)
	cfg.Quorum = 0.5
	cfg.CollectTimeout = 200 * time.Millisecond
	cfg.Faults = &fault.Plan{
		Seed:           3,
		ChurnIntervals: []fault.Churn{{Device: 1, FromRound: 1, ToRound: 3}},
	}
	res := runWithTimeout(t, cfg)
	if res.CompletedRounds != cfg.Rounds {
		t.Fatalf("completed %d of %d rounds with transient churn", res.CompletedRounds, cfg.Rounds)
	}
	if res.FinalAccuracy < 0.2 {
		t.Fatalf("accuracy %v after churn rejoin", res.FinalAccuracy)
	}
}

// TestRealtimeOmissionAccounted: an omission-Byzantine device trains but
// withholds every upload; leaders absorb it and the run counts each omission.
func TestRealtimeOmissionAccounted(t *testing.T) {
	cfg := buildConfig(t, 3, 2, 2, 6, 1, 0)
	cfg.Quorum = 0.5
	cfg.CollectTimeout = 200 * time.Millisecond
	cfg.Faults = &fault.Plan{Seed: 3, OmitProb: map[int]float64{2: 1.0}}
	res := runWithTimeout(t, cfg)
	if res.Omitted == 0 {
		t.Fatal("withheld uploads not counted")
	}
	if res.CompletedRounds != cfg.Rounds {
		t.Fatalf("completed %d of %d rounds", res.CompletedRounds, cfg.Rounds)
	}
}

// TestRealtimeDropsTerminate: message loss on the real channels (the plan's
// per-send coins) must degrade rounds, never hang them.
func TestRealtimeDropsTerminate(t *testing.T) {
	cfg := buildConfig(t, 3, 2, 2, 6, 1, 0)
	cfg.Quorum = 0.5
	cfg.CollectTimeout = 150 * time.Millisecond
	cfg.Faults = &fault.Plan{Seed: 3, Drop: 0.3}
	res := runWithTimeout(t, cfg)
	if res.DroppedSends == 0 {
		t.Fatal("no sends dropped at 30% loss")
	}
	if res.CompletedRounds == 0 && res.AbandonedRounds == 0 {
		t.Fatal("rounds neither completed nor abandoned")
	}
}

// TestRealtimeValidateRejectsFaultsWithoutTimeout: faults without a collect
// timeout would be a guaranteed deadlock (channels cannot time out on their
// own), so Validate must refuse the configuration up front.
func TestRealtimeValidateRejectsFaultsWithoutTimeout(t *testing.T) {
	cfg := buildConfig(t, 3, 2, 2, 5, 1, 0)
	cfg.Faults = &fault.Plan{Seed: 1, Drop: 0.1}
	if _, err := Run(cfg); err == nil {
		t.Fatal("fault plan without CollectTimeout accepted")
	}
	cfg.CollectTimeout = 100 * time.Millisecond
	cfg.TimeoutBackoff = 0.5
	if _, err := Run(cfg); err == nil {
		t.Fatal("backoff below 1 accepted")
	}
}

// failingRule errors on its nth AggregateInto (counted across the concurrent
// leaders) and is the inner rule otherwise.
type failingRule struct {
	aggregate.Aggregator
	calls *atomic.Int64
	nth   int64
}

func (f failingRule) AggregateInto(dst tensor.Vector, s *aggregate.Scratch, u []tensor.Vector) error {
	if f.calls.Add(1) == f.nth {
		return errors.New("rule blew up")
	}
	return f.Aggregator.AggregateInto(dst, s, u)
}

// TestRealtimeStepErrorIsReported: a leader whose step fails drops that round
// and carries on, but the failure is counted and the first one is in the
// Result instead of vanishing.
func TestRealtimeStepErrorIsReported(t *testing.T) {
	cfg := buildConfig(t, 3, 2, 2, 4, 1, 0)
	cfg.Quorum = 0.5 // parents proceed on the sibling's partial
	cfg.PartialBRA = failingRule{cfg.PartialBRA, new(atomic.Int64), 3}
	cfg.Telemetry = telemetry.New()
	res := runWithTimeout(t, cfg)
	if res.StepError == nil || !strings.Contains(res.StepError.Error(), "rule blew up") {
		t.Fatalf("StepError = %v", res.StepError)
	}
	counted := int64(0)
	for lvl := 0; lvl < 3; lvl++ {
		counted += cfg.Telemetry.Counter(fmt.Sprintf(`abdhfl_step_errors_total{engine="realtime",level="%d"}`, lvl)).Value()
	}
	if counted != 1 {
		t.Fatalf("step error counters sum to %d, want 1", counted)
	}
	if res.CompletedRounds == 0 {
		t.Fatal("no rounds completed around the failed step")
	}
}
