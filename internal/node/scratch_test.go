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
	"abdhfl/internal/nn"
	"abdhfl/internal/rng"
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

// TestRunClusterWireVolume pins what one RunCluster call puts on the wire
// on the node_round shape: 136 frames a round (updates, partials, the
// global's relay, and the ABA ballot exchange's four proposals and four
// ballots) and 380 712 bytes, of which the proposals are the level-1
// partials' int8 bytes forwarded, not the decoded vectors. Both backends
// frame alike, so a byte more or less is a wire format change.
func TestRunClusterWireVolume(t *testing.T) {
	const rounds, framesPerRound, bytesPerRound = 5, 136, 380_712
	mat := build(t, nodeRoundScenario())
	for _, backend := range []string{BackendLoopback, BackendTCP} {
		t.Run(backend, func(t *testing.T) {
			res, err := RunCluster(ClusterOpts{Materials: mat, Seed: 3, Backend: backend})
			if err != nil {
				t.Fatalf("cluster run: %v", err)
			}
			if tot := res.Total; tot.FramesSent != rounds*framesPerRound || tot.BytesSent != rounds*bytesPerRound {
				t.Errorf("%s: %d frames, %d bytes sent; want %d and %d", backend, tot.FramesSent, tot.BytesSent, rounds*framesPerRound, rounds*bytesPerRound)
			}
		})
	}
}

// TestRunClusterAllocBudget pins what one RunCluster call allocates on the
// node_round shape, in bytes and in objects. The budgets are the figures
// this test measures (loopback 6.2 MB / 10 500 objects, TCP 7.3 MB /
// 17 900 objects) plus a tenth. The same run allocated 279 MB when every
// endpoint pre-sized its dupe map, 21.4 MB over TCP while every frame was
// read into, and encoded into, a fresh buffer, 12.5 MB while every engine
// built its own model, workspace, gradients and update vector, armed a
// fresh timer per wait and filled its own address book, and 8.1 MB while
// the root re-serialised the ABA proposals as raw float64s and every leader
// scored them on a validation pool of its own. What is left is mostly the
// engines' global and spare vectors and leader round scratch, the wire's
// frame buffers and one connection reader per link. The object budget
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
		{BackendLoopback, 69 << 20 / 10, 11_600},
		{BackendTCP, 81 << 20 / 10, 19_700},
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

// runLoopbackHooked is RunCluster over loopback, engines sharing one
// training pool as there, with one addition: after every round an engine
// finishes, atRoundEnd runs on that engine's own goroutine (it rides on the
// "round done" progress line).
func runLoopbackHooked(t *testing.T, mat *abdhfl.Materials, seed uint64, plan *fault.Plan, atRoundEnd func(*Engine)) []*Result {
	t.Helper()
	n := mat.Tree.NumDevices() + 1
	lb := transport.NewLoopback()
	engines := make([]*Engine, n)
	var pool *nn.EvalPool
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
			pool: pool,
		})
		if err != nil {
			t.Fatal(err)
		}
		pool = engines[id].pool
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
// rests on: every vector roundVec handed out, the spare global (which held
// the round's own update) and every model and workspace in the shared
// training pool are dead when a round ends. A 3-round run whose engines
// overwrite all of them with NaN at each round's end — so any value carried
// across a round boundary in reused memory poisons the model — must report
// exactly what the untouched run reports, node by node: final model, curve,
// σ-accounting, audits, stalls. The pool is a sync.Pool, which cannot be
// listed, so each round end takes sixteen scratches out at once — what the
// pool holds, or more — NaN-fills each model, trains it with momentum and
// weight decay so its activations, gradients and momentum turn NaN too, and
// puts them back: nearly every later borrow gets a poisoned scratch. Delta-int8 makes every decode read the previous global
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
		var pooled [16]*nn.EvalScratch
		for i := range pooled {
			s := e.pool.Get()
			for l := range s.Model.Weights {
				copy(s.Model.Weights[l].Data, e.spare)
				copy(s.Model.Biases[l], e.spare)
			}
			nn.SGDWS(s.Model, s.WS, e.ccfg.ClientData[0], nn.TrainConfig{LearningRate: 1, BatchSize: 9, Iterations: 1, Momentum: 0.5, WeightDecay: 0.1}, rng.New(1))
			pooled[i] = s
		}
		for _, s := range pooled {
			e.pool.Put(s)
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
