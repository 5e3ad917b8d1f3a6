package node

import (
	"cmp"
	"encoding/binary"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"abdhfl"
	"abdhfl/internal/core"
	"abdhfl/internal/fault"
	"abdhfl/internal/telemetry"
	"abdhfl/internal/transport"
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

// runCore runs s on RunHFL and returns its result and its filter audit in
// the canonical WireAudit form.
func runCore(t *testing.T, s abdhfl.Scenario) (*core.Result, []WireAudit) {
	t.Helper()
	cm := build(t, s)
	var audits []WireAudit
	cm.OnFilter = func(d telemetry.FilterDecision) {
		audits = append(audits, WireAudit{
			Level: d.Level, Cluster: d.Cluster, Round: d.Round, Rule: d.Rule,
			Kept: canonInts(d.Kept), Clipped: canonInts(d.Clipped), Discarded: canonInts(d.Discarded),
		})
	}
	res, err := cm.RunHFL(s.Seed)
	if err != nil {
		t.Fatalf("core run: %v", err)
	}
	return res, audits
}

// TestNodeClusterMatchesCore is the distributed≡single-process golden: a
// full loopback cluster run must reproduce core.RunHFL byte for byte —
// final model, accuracy curve, σ-accounting, and the filter audit — with
// no codec configured (each engine's identity) and with a lossy one.
func TestNodeClusterMatchesCore(t *testing.T) {
	for _, codecName := range []string{"", "delta-int8"} {
		t.Run(cmp.Or(codecName, "none"), func(t *testing.T) {
			s := testScenario(codecName)
			want, coreAudits := runCore(t, s)

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

// TestStandaloneEnginesMatchCluster runs every engine with no run state
// shared with another, as cmd/abdhfl-node's one engine per process runs:
// each draws its own initial model and keeps its own memo of decoded
// globals (so decodes every global itself). The process store is still
// shared, as in every process: the vectors, send buffers and models the
// engines borrow. On the ABA + delta-int8 scenario the run must be bit for
// bit the RunCluster run, whose engines share one init and one memo, and
// RunHFL's: final params, curve, σ-accounting and filter audit.
func TestStandaloneEnginesMatchCluster(t *testing.T) {
	s := testScenario("delta-int8")
	s.TopProtocol = "aba"
	want, coreAudits := runCore(t, s)
	cluster, err := RunCluster(ClusterOpts{Materials: build(t, s), Seed: s.Seed, StallAfter: 2 * time.Second})
	if err != nil {
		t.Fatalf("cluster run: %v", err)
	}
	got := loopbackRun{standalone: true}.run(t, build(t, s), s.Seed)

	for id, r := range got {
		if !reflect.DeepEqual(r, cluster.Results[id]) {
			t.Errorf("node %d: standalone %+v != RunCluster %+v", id, r, cluster.Results[id])
		}
		sameParams(t, "node model vs RunHFL", want.FinalParams, r.FinalParams)
	}
	root := got[len(got)-1]
	if !reflect.DeepEqual(want.Curve, root.Curve) || want.Comm != root.Comm {
		t.Errorf("curve/comm: core %+v %+v != standalone %+v %+v", want.Curve, want.Comm, root.Curve, root.Comm)
	}
	if !reflect.DeepEqual(coreAudits, canonAudits(root.Audit)) {
		t.Errorf("filter audit diverges:\ncore:       %+v\nstandalone: %+v", coreAudits, canonAudits(root.Audit))
	}
}

// frameMangler stands between an engine and its endpoint and rewrites
// each frame of kind the engine sends with mangle; a nil result swallows
// the frame.
type frameMangler struct {
	transport.Endpoint
	kind   uint8
	mangle func(to transport.NodeID, round uint32, payload []byte) []byte
}

func (m frameMangler) Send(to transport.NodeID, f *transport.Frame) error {
	if f.Kind != m.kind {
		return m.Endpoint.Send(to, f)
	}
	g := *f
	if g.Payload = m.mangle(to, f.Round, slices.Clone(f.Payload)); g.Payload == nil {
		return nil
	}
	return m.Endpoint.Send(to, &g)
}

// TestMalformedBallotIsSilent holds the root to the rule a ballot row
// already follows when it never arrives: a ballot that arrives malformed,
// or naming another consensus member, makes its sender a silent member,
// not the end of the run. With four top members (one silent within the
// fault budget), the run must report what the run where that leader's
// ballots are swallowed reports: final model, curve, audit and
// consensus exclusions.
func TestMalformedBallotIsSilent(t *testing.T) {
	s := testScenario("")
	s.TopProtocol, s.TopNodes = "aba", 4
	leader := build(t, s).Tree.Clusters[1][1].Leader
	run := func(t *testing.T, mangle func([]byte) []byte) *Result {
		t.Helper()
		res := loopbackRun{wrap: func(id int, ep transport.Endpoint) transport.Endpoint {
			if id != leader {
				return ep
			}
			return frameMangler{ep, KindBallot, func(_ transport.NodeID, _ uint32, p []byte) []byte { return mangle(p) }}
		}}.run(t, build(t, s), s.Seed)
		return res[len(res)-1]
	}
	want := run(t, func([]byte) []byte { return nil })
	for _, tc := range []struct {
		name   string
		mangle func([]byte) []byte
	}{
		{"truncated", func(p []byte) []byte { return p[:len(p)-1] }},
		{"bit count", func(p []byte) []byte { return append(p, 1) }},
		{"another member", func(p []byte) []byte {
			binary.LittleEndian.PutUint32(p, binary.LittleEndian.Uint32(p)^1)
			return p
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := run(t, tc.mangle)
			sameParams(t, "final params", want.FinalParams, got.FinalParams)
			if !reflect.DeepEqual(want.Curve, got.Curve) || !reflect.DeepEqual(want.Audit, got.Audit) || want.ExcludedByConsensus != got.ExcludedByConsensus {
				t.Errorf("mangled ballot reports differently from a swallowed one:\nwant %+v\ngot  %+v", want, got)
			}
		})
	}
}

// TestDivergentRelayDecodesItsOwnGlobal holds the sharing of decoded
// globals to its key: the exact bytes and the very reference vector. A
// leader relays round 0's global to one member with a code byte changed,
// so from then on that member holds a global no other engine holds, and
// the bytes it receives in later rounds are the root's again but decode
// against its own reference. Every node must report what it reports when
// no engine shares anything with another, node by node.
func TestDivergentRelayDecodesItsOwnGlobal(t *testing.T) {
	s := testScenario("delta-int8")
	leader := build(t, s).Tree.Clusters[1][0].Leader
	member := leader + 1
	wrap := func(id int, ep transport.Endpoint) transport.Endpoint {
		if id != leader {
			return ep
		}
		return frameMangler{ep, KindGlobal, func(to transport.NodeID, round uint32, p []byte) []byte {
			if int(to) == member && round == 0 {
				p[len(p)-1] ^= 0x5a
			}
			return p
		}}
	}
	want := loopbackRun{wrap: wrap, standalone: true}.run(t, build(t, s), s.Seed)
	got := loopbackRun{wrap: wrap}.run(t, build(t, s), s.Seed)
	if slices.Equal(want[member].FinalParams, want[leader].FinalParams) {
		t.Fatal("the altered relay left its member on the others' global")
	}
	for id := range want {
		if !reflect.DeepEqual(want[id], got[id]) {
			t.Errorf("node %d reports differently when globals are shared:\nwant %+v\ngot  %+v", id, want[id], got[id])
		}
	}
}

// TestEngineErrorEndsTheRun fails one engine in round 0 — the root, handed
// a truncated partial — and holds the run to returning that error at once:
// the other engines, parked waiting for a global that never comes, are cut
// off by their endpoints closing instead of waiting out GlobalWait.
func TestEngineErrorEndsTheRun(t *testing.T) {
	s := testScenario("")
	leader := build(t, s).Tree.Clusters[1][1].Leader
	begin := time.Now()
	_, err := loopbackRun{wrap: func(id int, ep transport.Endpoint) transport.Endpoint {
		if id != leader {
			return ep
		}
		return frameMangler{ep, KindPartial, func(_ transport.NodeID, _ uint32, p []byte) []byte { return p[:2] }}
	}}.start(t, build(t, s), s.Seed)
	took := time.Since(begin)
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("run returned %v; want the root's truncated-partial error", err)
	}
	if took > loopbackGlobalWait/4 {
		t.Errorf("the run took %v to return an engine error; GlobalWait is %v", took, loopbackGlobalWait)
	}
}
