// Package chaostest is the fault-injection test harness for the ABD-HFL
// engines: it sweeps seeds through composable fault plans (internal/fault)
// and asserts the protocol-level invariants every engine must keep under
// failure — the run terminates (no deadlock), never panics, reports a
// coherent round count, keeps its σ-accounting consistent (σ_w+σ_p+σ_g = σ,
// ν ∈ [0,1]; Eq. 3), and, when the plan leaves enough healthy quorum to
// finish, still learns above an accuracy floor.
//
// The harness is engine-agnostic: tests adapt each engine's result into an
// Outcome, so the same invariant checks cover the discrete-event pipeline,
// the node engine on a real wire, and the synchronous core engine.
package chaostest

import (
	"fmt"
	"math"
	"testing"
	"time"

	"abdhfl/internal/dataset"
	"abdhfl/internal/rng"
	"abdhfl/internal/topology"
	"abdhfl/internal/trace"
)

// Fixture bundles the deterministic inputs of one engine run: tree, device
// shards, test set, and top-level validation shards.
type Fixture struct {
	Tree      *topology.Tree
	Shards    []*dataset.Dataset
	Test      *dataset.Dataset
	ValShards []*dataset.Dataset
}

// NewFixture builds an ECSM tree of the given shape with IID shards, all
// derived from seed.
func NewFixture(t testing.TB, seed uint64, levels, m, top int) *Fixture {
	t.Helper()
	tree, err := topology.NewECSM(levels, m, top)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(seed)
	devices := tree.NumDevices()
	full := dataset.Generate(r.Derive("train"), devices*60, dataset.DefaultGen())
	valPool := dataset.Generate(r.Derive("val"), 300, dataset.DefaultGen())
	return &Fixture{
		Tree:      tree,
		Shards:    dataset.PartitionIID(r.Derive("part"), full, devices),
		Test:      dataset.Generate(r.Derive("test"), 400, dataset.DefaultGen()),
		ValShards: dataset.PartitionIID(r.Derive("valpart"), valPool, top),
	}
}

// SigmaRound is one engine-reported timing decomposition observation (the
// paper's per-round σ_w, σ_p, σ_g, σ and ν).
type SigmaRound struct {
	W, P, G, Total, Nu float64
}

// Outcome is an engine run's result, reduced to the invariant-bearing facts.
type Outcome struct {
	// Name labels the run in failure messages (engine + plan).
	Name string
	// Err is the engine's returned error; any non-nil error fails the check
	// (fault plans must degrade runs, not error them out).
	Err error
	// ConfiguredRounds and CompletedRounds are the requested and actually
	// formed global rounds. Completed < Configured is legitimate degraded
	// operation under faults; Completed > Configured is a protocol bug.
	ConfiguredRounds, CompletedRounds int
	// FinalAccuracy is checked against AccuracyFloor, but only when every
	// configured round completed (a plan that starves rounds legitimately
	// caps learning). AccuracyFloor 0 skips the check.
	FinalAccuracy, AccuracyFloor float64
	// Sigmas holds the run's timing decompositions, if the engine measures
	// them.
	Sigmas []SigmaRound
	// Flight, when non-nil, is the run's flight recorder: Check dumps its
	// tail (the last raw simulator deliveries before the failure) alongside
	// the first invariant violation, so a chaos failure arrives with its own
	// post-mortem instead of just a final-state assertion message.
	Flight *trace.FlightRecorder
}

// Violations returns every invariant the outcome breaks, in check order; an
// empty slice means the outcome is clean. Check wraps this for tests; the
// split form lets harnesses (and the flight-recorder dump test) inspect
// violations without a *testing.T.
func Violations(o Outcome) []string {
	var v []string
	if o.Err != nil {
		v = append(v, fmt.Sprintf("%s: run errored: %v", o.Name, o.Err))
	}
	if o.CompletedRounds < 0 || o.CompletedRounds > o.ConfiguredRounds {
		v = append(v, fmt.Sprintf("%s: completed %d of %d configured rounds", o.Name, o.CompletedRounds, o.ConfiguredRounds))
	}
	if o.AccuracyFloor > 0 && o.CompletedRounds == o.ConfiguredRounds && o.FinalAccuracy < o.AccuracyFloor {
		v = append(v, fmt.Sprintf("%s: accuracy %.3f below floor %.3f with all %d rounds completed",
			o.Name, o.FinalAccuracy, o.AccuracyFloor, o.ConfiguredRounds))
	}
	for i, s := range o.Sigmas {
		for what, val := range map[string]float64{"sigma_w": s.W, "sigma_p": s.P, "sigma_g": s.G, "sigma": s.Total} {
			if val < -1e-9 || math.IsNaN(val) || math.IsInf(val, 0) {
				v = append(v, fmt.Sprintf("%s: round %d %s = %v", o.Name, i, what, val))
			}
		}
		if got := s.W + s.P + s.G; math.Abs(got-s.Total) > 1e-6 {
			v = append(v, fmt.Sprintf("%s: round %d decomposition %v != sigma %v", o.Name, i, got, s.Total))
		}
		if s.Nu < -1e-9 || s.Nu > 1+1e-9 {
			v = append(v, fmt.Sprintf("%s: round %d nu = %v out of [0,1]", o.Name, i, s.Nu))
		}
	}
	return v
}

// Check asserts one outcome's invariants, dumping the flight recorder's tail
// before failing so the violation report carries the simulator's last
// deliveries.
func Check(t *testing.T, o Outcome) {
	t.Helper()
	v := Violations(o)
	if len(v) == 0 {
		return
	}
	if o.Flight != nil && o.Flight.Total() > 0 {
		t.Logf("%s", o.Flight.Dump())
	}
	t.Fatalf("%s", v[0])
}

// Sweep runs fn once per seed under panic and deadlock protection, then
// checks each outcome's invariants. timeout bounds one seed's wall clock: a
// fault plan must degrade the protocol, never hang it.
func Sweep(t *testing.T, seeds []uint64, timeout time.Duration, fn func(seed uint64) Outcome) {
	t.Helper()
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			type res struct {
				out      Outcome
				panicked any
			}
			ch := make(chan res, 1)
			go func() {
				defer func() {
					if r := recover(); r != nil {
						ch <- res{panicked: r}
					}
				}()
				ch <- res{out: fn(seed)}
			}()
			select {
			case r := <-ch:
				if r.panicked != nil {
					t.Fatalf("seed %d: engine panicked: %v", seed, r.panicked)
				}
				Check(t, r.out)
			case <-time.After(timeout):
				t.Fatalf("seed %d: engine did not terminate within %v (deadlock?)", seed, timeout)
			}
		})
	}
}
