package node

import (
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"abdhfl"
	"abdhfl/internal/fault"
	"abdhfl/internal/nn"
	"abdhfl/internal/rng"
	"abdhfl/internal/tensor"
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
// node_round shape, in bytes and in objects. The byte budgets are the
// highest figures this test measures at GOMAXPROCS 1 to 4 (loopback 2.87 MB,
// TCP 2.84 MB, both at 4) plus a tenth, rounded up; thirty TCP runs at 2
// beside a BenchmarkRunClusterTCP loading the CPU read at most 2.55 MB; at 8
// more engines hold a borrowed vector at once, and TCP reads up to 3.0 MB.
// The object budgets are the same runs' counts (10 450 and 17 260) plus
// about a tenth; loopback's stays at its earlier 11 400. The same run
// allocated 279 MB when every endpoint pre-sized its dupe map, 21.4 MB over
// TCP while every frame was read into, and encoded into, a fresh buffer,
// 12.5 MB while every engine built its own model, workspace, gradients and
// update vector, armed a fresh timer per wait and filled its own address
// book, 8.1 MB while the root re-serialised the ABA proposals as raw
// float64s and every leader scored them on a validation pool of its own,
// 7.3 MB while every engine drew its own initial model and kept a spare
// global and round scratch of its own, 5.0 MB while every engine decoded
// each round's global into a vector of its own, and 3.6 MB while every
// endpoint kept a frame free list of its own and every TCP link a 4 KiB
// reader. What is left is mostly the vectors engines have borrowed from
// the process at once and the process's frame buffers. The object
// budget catches a per-frame allocation that returns even when its bytes
// are few. `make profile-node` prints where the bytes of a failing run come
// from.
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
		{BackendLoopback, 32 << 20 / 10, 11_400},
		{BackendTCP, 32 << 20 / 10, 19_000},
	} {
		t.Run(tc.backend, func(t *testing.T) {
			// run logs each run's figures with its redials, so an outlier
			// says whether reconnects or failed dials came with it.
			run := func() (bytes, objects uint64) {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				res, err := RunCluster(ClusterOpts{Materials: mat, Seed: 3, Backend: tc.backend})
				if err != nil {
					t.Fatalf("cluster run: %v", err)
				}
				runtime.ReadMemStats(&after)
				tot := res.Total
				if tot.FramesSent != tot.FramesDelivered || tot.SendErrors+tot.DecodeErrors != 0 {
					t.Fatalf("unclean wire: %+v", tot)
				}
				bytes, objects = after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
				t.Logf("%s run: %.2f MB, %d objects, %d reconnects, %d failed dials, %d GCs",
					tc.backend, float64(bytes)/(1<<20), objects, tot.Reconnects, tot.DialFailures, after.NumGC-before.NumGC)
				return bytes, objects
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

// loopbackRun is RunCluster over loopback with test hooks. Its engines
// share one process state as there, unless standalone, when each builds
// its own as cmd/abdhfl-node's one engine does; wrap, when set, stands
// between an engine and its endpoint; atRoundEnd, when set, runs on an
// engine's own goroutine after every round it finishes (it rides on the
// "round done" progress line).
type loopbackRun struct {
	plan       *fault.Plan
	standalone bool
	wrap       func(id int, ep transport.Endpoint) transport.Endpoint
	atRoundEnd func(*Engine)
}

func (o loopbackRun) run(t *testing.T, mat *abdhfl.Materials, seed uint64) []*Result {
	t.Helper()
	results, err := o.start(t, mat, seed)
	if err != nil {
		t.Fatal(err)
	}
	return results
}

// start runs the engines as RunCluster does (runEngines) and returns what
// that returns.
func (o loopbackRun) start(t *testing.T, mat *abdhfl.Materials, seed uint64) ([]*Result, error) {
	t.Helper()
	n := mat.Tree.NumDevices() + 1
	lb := transport.NewLoopback()
	engines := make([]*Engine, n)
	endpoints := make([]transport.Endpoint, n)
	var sh *shared
	for id := range engines {
		ep, err := lb.Attach(transport.Config{Self: transport.NodeID(id), Plan: o.plan, FaultKinds: FaultableKinds()})
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		endpoints[id] = ep
		var wire transport.Endpoint = ep
		if o.wrap != nil {
			wire = o.wrap(id, ep)
		}
		id := id
		engines[id], err = New(Config{
			Materials: mat, Seed: seed, ID: transport.NodeID(id), Endpoint: wire, Plan: o.plan,
			StallAfter: 500 * time.Millisecond, GlobalWait: loopbackGlobalWait,
			Logf: func(format string, _ ...any) {
				if o.atRoundEnd != nil && strings.Contains(format, "done") {
					o.atRoundEnd(engines[id])
				}
			},
			shared: sh,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !o.standalone {
			sh = engines[id].sh
		}
	}
	return runEngines(engines, endpoints)
}

// loopbackGlobalWait is how long a loopbackRun engine waits for a round's
// global before it fails.
const loopbackGlobalWait = 8 * time.Second

// TestRoundScratchDeadAtRoundEnd is the lifetime claim the engines' sharing
// rests on: every vector on the process free list and every model and
// workspace in the shared training pool is dead — no engine reads it again
// before it borrows it anew. A 3-round run whose engines overwrite all of
// them with NaN at each of their round ends — while other engines are
// mid-round, so a vector read after it went back poisons a model, or shows
// as a race under -race — must report exactly what the untouched run
// reports, node by node: final model, curve, σ-accounting, audits, stalls.
// The pool is a sync.Pool, which cannot be listed, so each round end takes
// sixteen scratches out at once — what the pool holds, or more —
// NaN-fills each model, trains it with momentum and weight decay so its
// activations, gradients and momentum turn NaN too, and puts them back:
// nearly every later borrow gets a poisoned scratch. Delta-int8 makes every
// decode read the previous global and ABA adds the proposal vectors; the
// drop+duplicate plan adds starved clusters, silent ballots and rounds that
// take fewer vectors than the round before. The clean run is tied to
// RunHFL, the golden the sharing must not move.
func TestRoundScratchDeadAtRoundEnd(t *testing.T) {
	s := testScenario("delta-int8")
	s.TopProtocol = "aba"
	poison := func(e *Engine) {
		nan := tensor.NewVector(e.dim)
		for i := range nan {
			nan[i] = math.NaN()
		}
		e.sh.mu.Lock()
		for _, v := range e.sh.free {
			copy(v, nan)
		}
		e.sh.mu.Unlock()
		var pooled [16]*nn.EvalScratch
		for i := range pooled {
			s := e.sh.pool.Get()
			for l := range s.Model.Weights {
				copy(s.Model.Weights[l].Data, nan)
				copy(s.Model.Biases[l], nan)
			}
			nn.SGDWS(s.Model, s.WS, e.ccfg.ClientData[0], nn.TrainConfig{LearningRate: 1, BatchSize: 9, Iterations: 1, Momentum: 0.5, WeightDecay: 0.1}, rng.New(1))
			pooled[i] = s
		}
		for _, s := range pooled {
			e.sh.pool.Put(s)
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
			want := loopbackRun{plan: tc.plan}.run(t, build(t, s), s.Seed)
			got := loopbackRun{plan: tc.plan, atRoundEnd: poison}.run(t, build(t, s), s.Seed)
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
