package node

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"abdhfl"
	"abdhfl/internal/core"
	"abdhfl/internal/fault"
	"abdhfl/internal/freelist"
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
// node_round shape, in bytes and in objects, as the most any of three runs
// after a first one allocates (the first pays for what the process keeps:
// lazy tables, the listener's poller, the frame list and the store). The
// byte budgets are the highest figures measured plus a tenth, rounded up:
// thirty runs of this test at each of GOMAXPROCS 1 to 4 read at most
// 1.85 MB over TCP and 2.04 MB over loopback, ten at 8 at most 2.04 MB
// over TCP, and fifteen at 2 beside a BenchmarkRunClusterTCP loading the
// CPU at most 2.2 MB over TCP. The object budgets are earlier counts plus
// about a tenth; those runs read at most 17 650 and 10 770. The same run
// allocated 279 MB when every endpoint pre-sized its dupe map, 21.4 MB over
// TCP while every frame was read into, and encoded into, a fresh buffer,
// 12.5 MB while every engine built its own model, workspace, gradients and
// update vector, armed a fresh timer per wait and filled its own address
// book, 8.1 MB while the root re-serialised the ABA proposals as raw
// float64s and every leader scored them on a validation pool of its own,
// 7.3 MB while every engine drew its own initial model and kept a spare
// global and round scratch of its own, 5.0 MB while every engine decoded
// each round's global into a vector of its own, 3.6 MB while every
// endpoint kept a frame free list of its own and every TCP link a 4 KiB
// reader, and 2.5–2.9 MB (3.5–4.6 MB when a collection emptied the model
// pool, a sync.Pool then) while every run grew its own vector free list and
// model pool and every engine kept a send buffer. A run could still read
// up to 2.65 MB when it overlapped more trainings than any run before it,
// each borrowing one more model from the process pool, until at most
// GOMAXPROCS engines trained at once (trainSlots). What is left is mostly
// the sockets, the root's ABA instance and each round's globals. The
// object budget catches a per-frame allocation that returns even when its
// bytes are few. `make profile-node` prints where the bytes of a run come
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
		{BackendLoopback, 23 << 20 / 10, 11_400},
		{BackendTCP, 25 << 20 / 10, 19_000},
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
			run() // first-use costs (lazy tables, the listener's poller, the store) are not per-run
			var bytes, objects uint64
			for i := 0; i < 3; i++ {
				b, o := run()
				bytes, objects = max(bytes, b), max(objects, o)
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
// share one run state as there, unless standalone, when each builds its own
// as cmd/abdhfl-node's one engine does; hidden, when set, is the model's
// hidden layers in place of the materials' default; wrap, when set, stands
// between an engine and its endpoint.
type loopbackRun struct {
	plan       *fault.Plan
	standalone bool
	hidden     []int
	wrap       func(id int, ep transport.Endpoint) transport.Endpoint
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
	return runEngines(o.engines(t, mat, seed))
}

// engines builds the run's engines on loopback endpoints that close, at
// the latest, when the test ends.
func (o loopbackRun) engines(t *testing.T, mat *abdhfl.Materials, seed uint64) ([]*Engine, []transport.Endpoint) {
	t.Helper()
	n := mat.Tree.NumDevices() + 1
	lb := transport.NewLoopback()
	engines := make([]*Engine, n)
	endpoints := make([]transport.Endpoint, n)
	ccfg := mat.CoreConfig(seed)
	ccfg.Hidden = o.hidden
	var sh *shared
	for id := range engines {
		ep, err := lb.Attach(transport.Config{Self: transport.NodeID(id), Plan: o.plan, FaultKinds: FaultableKinds()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ep.Close() })
		endpoints[id] = ep
		var wire transport.Endpoint = ep
		if o.wrap != nil {
			wire = o.wrap(id, ep)
		}
		engines[id], err = newEngine(Config{
			Materials: mat, Seed: seed, ID: transport.NodeID(id), Endpoint: wire, Plan: o.plan,
			StallAfter: 500 * time.Millisecond, GlobalWait: loopbackGlobalWait, shared: sh,
		}, ccfg)
		if err != nil {
			t.Fatal(err)
		}
		if !o.standalone {
			sh = engines[id].sh
		}
	}
	return engines, endpoints
}

// loopbackGlobalWait is how long a loopbackRun engine waits for a round's
// global before it fails.
const loopbackGlobalWait = 8 * time.Second

// TestRoundScratchDeadAtRoundEnd is the lifetime claim the process store
// rests on: every vector, send buffer, frame buffer and model it holds idle
// is dead — no engine reads or writes it again before it borrows it anew. A
// 3-round run under freelist's quarantine, which poisons every value the
// moment it is given back (a vector or a model's parameters NaN-filled, a
// send or frame buffer 0xff-filled) and never lends it again, must report
// exactly what the untouched run reports, node by node: final model,
// curve, σ-accounting, audits, stalls; and every value it retired must
// still hold its poison at the end. Delta-int8 makes every decode read the
// previous global and ABA adds the proposal vectors; the drop+duplicate
// plan adds starved clusters, silent ballots and rounds that take fewer
// vectors than the round before. The clean run is tied to RunHFL, the
// golden the sharing must not move.
func TestRoundScratchDeadAtRoundEnd(t *testing.T) {
	s := testScenario("delta-int8")
	s.TopProtocol = "aba"
	for _, tc := range []struct {
		name string
		plan *fault.Plan
	}{
		{"clean", nil},
		{"drop-dup", &fault.Plan{Seed: 9, Drop: 0.1, Duplicate: 0.2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := loopbackRun{plan: tc.plan}.run(t, build(t, s), s.Seed)
			end := freelist.Quarantine()
			t.Cleanup(func() {
				if !end() {
					t.Error("a vector, buffer or model was written, or given back again, after it went back to its free list")
				}
			})
			got := loopbackRun{plan: tc.plan}.run(t, build(t, s), s.Seed)
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

// TestStoreServesTwoShapes runs two loopback clusters of different model
// shapes (hidden layers 32 and 16, so two dims) at once in one process, on
// the one store: each run's every node must hold its own RunHFL's final
// model, and its root RunHFL's curve and σ-accounting. The store's own
// bookkeeping under concurrent borrowers of two dims is step's
// TestStoreTwoDimsConcurrently. Run it with -race too.
func TestStoreServesTwoShapes(t *testing.T) {
	s := testScenario("delta-int8")
	hidden := [][]int{{32}, {16}}
	results := make([][]*Result, len(hidden))
	errs := make([]error, len(hidden))
	var wg sync.WaitGroup
	for i, h := range hidden {
		engines, endpoints := loopbackRun{hidden: h}.engines(t, build(t, s), s.Seed)
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = runEngines(engines, endpoints)
		}()
	}
	wg.Wait()
	dims := map[int]bool{}
	for i, h := range hidden {
		if errs[i] != nil {
			t.Fatalf("hidden %v: %v", h, errs[i])
		}
		ccfg := build(t, s).CoreConfig(s.Seed)
		ccfg.Hidden = h
		want, err := core.RunHFL(ccfg)
		if err != nil {
			t.Fatal(err)
		}
		dims[len(want.FinalParams)] = true
		for id, r := range results[i] {
			sameParams(t, fmt.Sprintf("hidden %v node %d vs RunHFL", h, id), want.FinalParams, r.FinalParams)
		}
		root := results[i][len(results[i])-1]
		if !reflect.DeepEqual(want.Curve, root.Curve) || want.Comm != root.Comm {
			t.Errorf("hidden %v: curve/comm %+v %+v != RunHFL %+v %+v", h, root.Curve, root.Comm, want.Curve, want.Comm)
		}
	}
	if len(dims) != 2 {
		t.Fatalf("the two shapes share a dim: %v", dims)
	}
}
