package node

import (
	"math"
	"reflect"
	"testing"
	"time"

	"abdhfl"
	"abdhfl/internal/fault"
	"abdhfl/internal/telemetry"
)

// testScenario is small enough for multi-backend runs under -race but
// exercises both aggregation paths: a BRA (multi-krum) at the bottom
// level and a CBA (validation voting) at the top, over 2 bottom clusters
// of 3 devices (ids 0-5; leaders 0 and 3; root 6).
func testScenario(codecName string) abdhfl.Scenario {
	return abdhfl.Scenario{
		Levels: 2, ClusterSize: 3, TopNodes: 2,
		Rounds: 3, LocalIters: 2, BatchSize: 8, LearningRate: 0.05,
		SamplesPerClient: 24, TestSamples: 80, ValidationSamples: 40,
		Aggregator: "multi-krum", TopProtocol: "voting",
		EvalEvery: 1, Seed: 7, Workers: 2,
		Codec: codecName,
	}.WithDefaults()
}

func build(t testing.TB, s abdhfl.Scenario) *abdhfl.Materials {
	t.Helper()
	m, err := abdhfl.Build(s)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return m
}

func canonInts(v []int) []int {
	if len(v) == 0 {
		return nil
	}
	return append([]int(nil), v...)
}

// canonAudit strips the fields the core engine does not report (step comm
// costs ride only on the wire audit) and normalizes empty slices.
func canonAudit(a WireAudit) WireAudit {
	a.Transfers, a.Scalars, a.Excluded = 0, 0, 0
	a.Kept, a.Clipped, a.Discarded = canonInts(a.Kept), canonInts(a.Clipped), canonInts(a.Discarded)
	return a
}

func canonAudits(in []WireAudit) []WireAudit {
	out := make([]WireAudit, len(in))
	for i, a := range in {
		out[i] = canonAudit(a)
	}
	return out
}

func sameParams(t *testing.T, what string, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: dim %d != %d", what, len(want), len(got))
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s: coordinate %d differs: %v != %v", what, i, want[i], got[i])
		}
	}
}

// TestNodeClusterMatchesCore is the distributed≡single-process golden: a
// full loopback cluster run must reproduce core.RunHFL byte for byte —
// final model, accuracy curve, σ-accounting, and the filter audit — with
// and without an update codec in the path.
func TestNodeClusterMatchesCore(t *testing.T) {
	for _, codecName := range []string{"", "delta-int8"} {
		name := codecName
		if name == "" {
			name = "raw"
		}
		t.Run(name, func(t *testing.T) {
			s := testScenario(codecName)

			cm := build(t, s)
			var coreAudits []WireAudit
			cm.OnFilter = func(d telemetry.FilterDecision) {
				coreAudits = append(coreAudits, WireAudit{
					Level: d.Level, Cluster: d.Cluster, Round: d.Round, Rule: d.Rule,
					Kept: canonInts(d.Kept), Clipped: canonInts(d.Clipped), Discarded: canonInts(d.Discarded),
				})
			}
			want, err := cm.RunHFL(s.Seed)
			if err != nil {
				t.Fatalf("core run: %v", err)
			}

			got, err := RunCluster(ClusterOpts{
				Materials:  build(t, s),
				Seed:       s.Seed,
				Backend:    BackendLoopback,
				StallAfter: 2 * time.Second,
			})
			if err != nil {
				t.Fatalf("cluster run: %v", err)
			}
			root := got.Root

			sameParams(t, "final params", want.FinalParams, root.FinalParams)
			for id, r := range got.Results {
				sameParams(t, "node model", want.FinalParams, r.FinalParams)
				if r.Stalls != 0 {
					t.Errorf("node %d: %d stalls on a fault-free run", id, r.Stalls)
				}
			}
			if !reflect.DeepEqual(want.Curve, root.Curve) {
				t.Errorf("curve: core %+v != node %+v", want.Curve, root.Curve)
			}
			if want.FinalAccuracy != root.FinalAccuracy {
				t.Errorf("final accuracy: %v != %v", want.FinalAccuracy, root.FinalAccuracy)
			}
			if want.Comm != root.Comm {
				t.Errorf("comm: core %+v != node %+v", want.Comm, root.Comm)
			}
			if want.ExcludedByConsensus != root.ExcludedByConsensus {
				t.Errorf("excluded: %d != %d", want.ExcludedByConsensus, root.ExcludedByConsensus)
			}
			if want.TrainerActivations != root.TrainerActivations {
				t.Errorf("trainer activations: %d != %d", want.TrainerActivations, root.TrainerActivations)
			}
			if !reflect.DeepEqual(coreAudits, canonAudits(root.Audit)) {
				t.Errorf("filter audit diverges:\ncore: %+v\nnode: %+v", coreAudits, canonAudits(root.Audit))
			}
		})
	}
}

// TestNodeClusterMatchesCoreABA repeats the distributed≡single-process
// golden with the randomized common-coin ABA at the top level. This is the
// path that exercises the wire ballot exchange (KindProposal/KindBallot):
// the root ships member proposals to the contributing leaders, each leader
// scores them on its validation shard and answers with its ballot row, and
// the injected BallotSet must reproduce the core engine's locally computed
// ballots — and therefore its decisions — byte for byte.
func TestNodeClusterMatchesCoreABA(t *testing.T) {
	s := testScenario("")
	s.TopProtocol = "aba"

	want, err := build(t, s).RunHFL(s.Seed)
	if err != nil {
		t.Fatalf("core run: %v", err)
	}

	got, err := RunCluster(ClusterOpts{
		Materials:  build(t, s),
		Seed:       s.Seed,
		Backend:    BackendLoopback,
		StallAfter: 2 * time.Second,
	})
	if err != nil {
		t.Fatalf("cluster run: %v", err)
	}
	root := got.Root

	sameParams(t, "final params", want.FinalParams, root.FinalParams)
	for id, r := range got.Results {
		sameParams(t, "node model", want.FinalParams, r.FinalParams)
		if r.Stalls != 0 {
			t.Errorf("node %d: %d stalls on a fault-free run", id, r.Stalls)
		}
	}
	if !reflect.DeepEqual(want.Curve, root.Curve) {
		t.Errorf("curve: core %+v != node %+v", want.Curve, root.Curve)
	}
	if want.FinalAccuracy != root.FinalAccuracy {
		t.Errorf("final accuracy: %v != %v", want.FinalAccuracy, root.FinalAccuracy)
	}
	if want.Comm != root.Comm {
		t.Errorf("comm: core %+v != node %+v", want.Comm, root.Comm)
	}
	if want.ExcludedByConsensus != root.ExcludedByConsensus {
		t.Errorf("excluded: %d != %d", want.ExcludedByConsensus, root.ExcludedByConsensus)
	}
}

// TestLoopbackTCPConformanceABA is the backend golden for the ballot
// exchange under faults: with drops and duplicates hitting the proposal and
// ballot frames (they are FaultableKinds), the deterministic fault fates
// must realize the same silent-member pattern on both backends, so the
// randomized protocol's outcome — and every node's final model — agrees.
func TestLoopbackTCPConformanceABA(t *testing.T) {
	s := testScenario("")
	s.TopProtocol = "aba"
	plan := &fault.Plan{Seed: 9, Drop: 0.1, Duplicate: 0.2}
	run := func(backend string) *ClusterResult {
		t.Helper()
		r, err := RunCluster(ClusterOpts{
			Materials:  build(t, s),
			Seed:       s.Seed,
			Backend:    backend,
			Plan:       plan,
			StallAfter: 500 * time.Millisecond,
			GlobalWait: 8 * time.Second,
		})
		if err != nil {
			t.Fatalf("%s run: %v", backend, err)
		}
		return r
	}
	lb := run(BackendLoopback)
	tcp := run(BackendTCP)

	if !reflect.DeepEqual(lb.Root, tcp.Root) {
		t.Errorf("root results diverge:\nloopback: %+v\ntcp:      %+v", lb.Root, tcp.Root)
	}
	for id := range lb.Results {
		sameParams(t, "node model", lb.Results[id].FinalParams, tcp.Results[id].FinalParams)
	}
}

// TestLoopbackTCPConformance is the backend golden: the same scenario and
// seed must produce identical protocol outcomes over in-process channels
// and over real sockets, under increasingly hostile fault plans. The
// comparable stats subset shrinks as faults widen the shutdown race on
// receive-side counters (see StatsSnapshot.Deterministic/SenderSide).
func TestLoopbackTCPConformance(t *testing.T) {
	cases := []struct {
		name  string
		codec string
		plan  *fault.Plan
		stats string // "full", "sender", "results"
	}{
		{name: "clean", stats: "full"},
		{name: "clean-codec", codec: "delta-int8", stats: "full"},
		{name: "dup-reorder", plan: &fault.Plan{Seed: 99, Duplicate: 0.3, Reorder: 0.5, ReorderDelay: 15}, stats: "sender"},
		{name: "drop", plan: &fault.Plan{Seed: 5, Drop: 0.15}, stats: "results"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := testScenario(tc.codec)
			run := func(backend string) *ClusterResult {
				t.Helper()
				r, err := RunCluster(ClusterOpts{
					Materials:  build(t, s),
					Seed:       s.Seed,
					Backend:    backend,
					Plan:       tc.plan,
					StallAfter: 500 * time.Millisecond,
					GlobalWait: 8 * time.Second,
				})
				if err != nil {
					t.Fatalf("%s run: %v", backend, err)
				}
				return r
			}
			lb := run(BackendLoopback)
			tcp := run(BackendTCP)

			if !reflect.DeepEqual(lb.Root, tcp.Root) {
				t.Errorf("root results diverge:\nloopback: %+v\ntcp:      %+v", lb.Root, tcp.Root)
			}
			for id := range lb.Results {
				sameParams(t, "node model", lb.Results[id].FinalParams, tcp.Results[id].FinalParams)
				if lb.Results[id].Stalls != tcp.Results[id].Stalls {
					t.Errorf("node %d stalls: loopback %d != tcp %d", id, lb.Results[id].Stalls, tcp.Results[id].Stalls)
				}
			}
			for id := range lb.Stats {
				switch tc.stats {
				case "full":
					if a, b := lb.Stats[id].Deterministic(), tcp.Stats[id].Deterministic(); a != b {
						t.Errorf("node %d stats: loopback %+v != tcp %+v", id, a, b)
					}
				case "sender":
					if a, b := lb.Stats[id].SenderSide(), tcp.Stats[id].SenderSide(); a != b {
						t.Errorf("node %d sender stats: loopback %+v != tcp %+v", id, a, b)
					}
				}
			}
			if tc.plan == nil && lb.Total.FaultDropped+lb.Total.FaultDuplicated+lb.Total.FaultDelayed != 0 {
				t.Errorf("fault counters on a clean run: %+v", lb.Total)
			}
			if tc.plan != nil && tc.plan.Drop > 0 && lb.Total.FaultDropped == 0 {
				t.Errorf("drop plan injected nothing")
			}
		})
	}
}
