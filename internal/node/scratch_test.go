package node

import (
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"abdhfl"
	"abdhfl/internal/fault"
	"abdhfl/internal/testenv"
	"abdhfl/internal/transport"
)

// nodeRoundScenario is the shape of the benchmark's node_round workload:
// 64 devices under 3 levels plus the root, multi-krum partials, ABA with its
// ballot exchange at the top, int8 on the wire, light training.
func nodeRoundScenario() abdhfl.Scenario {
	return abdhfl.Scenario{
		Levels: 3, ClusterSize: 4, TopNodes: 4,
		Aggregator: "multi-krum", TopProtocol: "aba", Codec: "int8",
		Attack: abdhfl.AttackType1, MaliciousFraction: 0.25, Placement: abdhfl.PlacePrefix,
		Rounds: 5, LocalIters: 1, BatchSize: 8,
		SamplesPerClient: 24, TestSamples: 400, ValidationSamples: 300, EvalEvery: 5,
		Seed: 3,
	}.WithDefaults()
}

// TestRunClusterAllocBudget pins what one RunCluster call allocates on the
// node_round shape, in bytes and in objects. The budgets are the figures
// this test measures (loopback 10.8 MB / 15 000 objects, TCP 12.7 MB /
// 23 100 objects) plus a tenth. The same run allocated 279 MB when every
// endpoint pre-sized its dupe map and 21.4 MB over TCP while every frame
// was read into, and encoded into, a fresh buffer; the object budget
// catches a per-frame allocation that returns even when its bytes are few.
// `make profile-node` prints where the bytes of a failing run come from.
func TestRunClusterAllocBudget(t *testing.T) {
	if testenv.UnderRace() {
		t.Skip("the race detector's own allocations are counted in TotalAlloc")
	}
	mat := build(t, nodeRoundScenario())
	for _, tc := range []struct {
		backend string
		bytes   uint64
		objects uint64
	}{
		{BackendLoopback, 12 << 20, 16_500},
		{BackendTCP, 14 << 20, 25_500},
	} {
		t.Run(tc.backend, func(t *testing.T) {
			run := func() (bytes, objects uint64) {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				res, err := RunCluster(ClusterOpts{Materials: mat, Seed: 3, Backend: tc.backend})
				if err != nil {
					t.Fatalf("cluster run: %v", err)
				}
				runtime.ReadMemStats(&after)
				if tot := res.Total; tot.FramesSent != tot.FramesDelivered || tot.SendErrors+tot.DecodeErrors != 0 {
					t.Fatalf("unclean wire: %+v", tot)
				}
				return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
			}
			run() // first-use costs (lazy tables, the listener's poller) are not per-run
			bytes, objects := run()
			for i := 0; i < 2; i++ {
				b, o := run()
				bytes, objects = min(bytes, b), min(objects, o)
			}
			t.Logf("%s: %.2f MB, %d objects per RunCluster (budget %.2f MB, %d objects)",
				tc.backend, float64(bytes)/(1<<20), objects, float64(tc.bytes)/(1<<20), tc.objects)
			if bytes > tc.bytes {
				t.Errorf("%s: RunCluster allocated %d bytes, budget %d", tc.backend, bytes, tc.bytes)
			}
			if objects > tc.objects {
				t.Errorf("%s: RunCluster allocated %d objects, budget %d", tc.backend, objects, tc.objects)
			}
		})
	}
}

// BenchmarkRunClusterTCP runs node_round-shaped RunCluster calls over TCP,
// one per iteration — the loop `make profile-node` takes its CPU and block
// profiles of.
func BenchmarkRunClusterTCP(b *testing.B) {
	mat := build(b, nodeRoundScenario())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunCluster(ClusterOpts{Materials: mat, Seed: 3, Backend: BackendTCP}); err != nil {
			b.Fatal(err)
		}
	}
}

// runLoopbackHooked is RunCluster over loopback with one addition: after
// every round an engine finishes, atRoundEnd runs on that engine's own
// goroutine (it rides on the "round done" progress line).
func runLoopbackHooked(t *testing.T, mat *abdhfl.Materials, seed uint64, plan *fault.Plan, atRoundEnd func(*Engine)) []*Result {
	t.Helper()
	n := mat.Tree.NumDevices() + 1
	lb := transport.NewLoopback()
	engines := make([]*Engine, n)
	for id := range engines {
		ep, err := lb.Attach(transport.Config{Self: transport.NodeID(id), Plan: plan, FaultKinds: FaultableKinds()})
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		id := id
		engines[id], err = New(Config{
			Materials: mat, Seed: seed, ID: transport.NodeID(id), Endpoint: ep, Plan: plan,
			StallAfter: 500 * time.Millisecond, GlobalWait: 8 * time.Second,
			Logf: func(format string, _ ...any) {
				if strings.Contains(format, "done") {
					atRoundEnd(engines[id])
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	results := make([]*Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for id := range engines {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			results[id], errs[id] = engines[id].Run()
		}(id)
	}
	wg.Wait()
	for id, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", id, err)
		}
	}
	return results
}

// TestRoundScratchDeadAtRoundEnd is the lifetime claim the engine's reuse
// rests on: every vector roundVec handed out, and the spare global, is dead
// when its round ends. A 3-round run whose engines overwrite all of them
// with NaN at each round's end — so any value carried across a round
// boundary in reused memory poisons the model — must report exactly what
// the untouched run reports, node by node: final model, curve, σ-accounting,
// audits, stalls. Delta-int8 makes every decode read the previous global
// and ABA adds the proposal vectors; the drop+duplicate plan adds starved
// clusters, silent ballots and rounds that take fewer vectors than the
// round before. The clean run is tied to RunHFL, the golden the reuse must
// not move.
func TestRoundScratchDeadAtRoundEnd(t *testing.T) {
	s := testScenario("delta-int8")
	s.TopProtocol = "aba"
	poison := func(e *Engine) {
		for i := range e.spare {
			e.spare[i] = math.NaN()
		}
		for _, v := range e.scratch {
			copy(v, e.spare)
		}
	}
	for _, tc := range []struct {
		name string
		plan *fault.Plan
	}{
		{"clean", nil},
		{"drop-dup", &fault.Plan{Seed: 9, Drop: 0.1, Duplicate: 0.2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := runLoopbackHooked(t, build(t, s), s.Seed, tc.plan, func(*Engine) {})
			got := runLoopbackHooked(t, build(t, s), s.Seed, tc.plan, poison)
			for id := range want {
				if !reflect.DeepEqual(want[id], got[id]) {
					t.Errorf("node %d reports differently once dead scratch is poisoned:\nwant %+v\ngot  %+v", id, want[id], got[id])
				}
			}
			if tc.plan != nil {
				return
			}
			core, err := build(t, s).RunHFL(s.Seed)
			if err != nil {
				t.Fatal(err)
			}
			root := got[len(got)-1]
			sameParams(t, "final params vs RunHFL", core.FinalParams, root.FinalParams)
			if !reflect.DeepEqual(core.Curve, root.Curve) || core.Comm != root.Comm {
				t.Errorf("curve/comm diverge from RunHFL: %+v %+v != %+v %+v", root.Curve, root.Comm, core.Curve, core.Comm)
			}
		})
	}
}
