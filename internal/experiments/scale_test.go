package experiments

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"abdhfl/internal/telemetry"
	"abdhfl/internal/testenv"
)

// smallScale is a topology that exercises every moving part (3 levels,
// cohort sampling, Byzantine placement) while staying test-suite fast.
func smallScale() ScaleOptions {
	return ScaleOptions{
		Depth:   3,
		Fanout:  4,
		Devices: 2000,
		Gamma:   0.2,
		Cohort:  2,
		Rounds:  3,
		Dim:     8,
		Rule:    "median",
		Seed:    11,
	}
}

// deterministicView strips the wall-clock fields so runs can be compared.
func deterministicView(r *ScaleResult) ScaleResult {
	v := *r
	v.Elapsed = 0
	v.DevicesPerSec = 0
	return v
}

func mustRunScale(t *testing.T, o ScaleOptions) *ScaleResult {
	t.Helper()
	res, err := RunScale(o)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestScaleDeterministicAcrossReruns(t *testing.T) {
	a := deterministicView(mustRunScale(t, smallScale()))
	b := deterministicView(mustRunScale(t, smallScale()))
	if fmtScale(a) != fmtScale(b) {
		t.Fatalf("rerun diverged:\n%+v\n%+v", a, b)
	}
}

// fmtScale renders every deterministic field, including nested stats and σ
// snapshots, for whole-result comparison.
func fmtScale(r ScaleResult) string { return fmt.Sprintf("%+v", r) }

// scaleDigest hashes every deterministic ScaleResult field except Events,
// BuffersAllocated and Net.PeakQueue, the three counts that say how a run
// holds its state and paces its queue rather than what it computes;
// TestScaleEventCount holds Events by its closed form. The fields are listed one by one,
// not printed with %+v, so an option added or deleted cannot move it; floats
// print in their shortest exact form.
func scaleDigest(r *ScaleResult) uint64 {
	h := fnv.New64a()
	o := r.Options
	fmt.Fprintln(h, o.Depth, o.Fanout, o.Devices, o.Gamma, o.Cohort, o.Rounds, o.Dim, o.Rule, o.Shards, o.Seed)
	fmt.Fprintln(h, r.Devices, r.Clusters, r.RelErr, r.Activations)
	for _, l := range r.Levels {
		fmt.Fprintln(h, l.Level, l.TP, l.FP, l.FN, l.TN)
	}
	n := r.Net
	fmt.Fprintln(h, n.Messages, n.Volume, n.Dropped, n.Duplicated, n.DroppedUnregistered)
	for _, s := range []telemetry.StreamSnapshot{r.SigmaW, r.SigmaP, r.SigmaG} {
		fmt.Fprintln(h, s.Count, s.Mean, s.Std, s.Min, s.Max)
	}
	return h.Sum64()
}

// TestScaleComputedFieldsPinned holds what RunScale computes — model error,
// every level's filter score, activations, traffic, the three σ
// summaries — for three rules on the small shape and on the scale_cell shape,
// against digests taken while every sampled device's arrival was armed at
// once and its update was filled as it landed. Arming one arrival per cluster
// and computing every value in a pass at the round's close may move only the
// counts scaleDigest leaves out: a device's values are a pure function of
// (seed, round, device), and its arrival fires at the same time in the same
// order. The depth-2, depth-4 and narrow-top shapes were pinned on the
// level-by-level value pass, before the pass went depth-first. Every digest
// was regenerated once when Events left scaleDigest, on the engine that
// armed one upload at a time and kicked each bottom cluster's round 0 off
// with a closure event; arming only a cohort's last upload, starting round 0
// before the loop and running each round's pass beside the next round's
// event loop then moved none of them.
func TestScaleComputedFieldsPinned(t *testing.T) {
	for _, pin := range scaleComputedPins {
		o := pin.opts()
		o.Rule = pin.rule
		if got := scaleDigest(mustRunScale(t, o)); got != pin.want {
			t.Errorf("%s %s: computed-fields digest %#x, pinned %#x", pin.shape, pin.rule, got, pin.want)
		}
	}
}

// scaleComputedPins are TestScaleComputedFieldsPinned's digests.
var scaleComputedPins = []struct {
	shape string
	opts  func() ScaleOptions
	rule  string
	want  uint64
}{
	{"small", smallScale, "median", 0x759bbf8840fae563},
	{"small", smallScale, "trimmed-mean", 0x6e84c8586c2769f8},
	{"small", smallScale, "multi-krum", 0xc9de088fbd188daa},
	{"cell", scaleCellOptions, "median", 0xabe0d1689271861d},
	{"cell", scaleCellOptions, "trimmed-mean", 0xb4191f97d6ebf593},
	{"cell", scaleCellOptions, "multi-krum", 0x69fe1bb036a1f20f},
	{"depth2", scaleDepth2Options, "median", 0xdf1c351b24a6650d},
	{"depth2", scaleDepth2Options, "multi-krum", 0x89ece875117c2da9},
	{"depth4", scaleDepth4Options, "median", 0xd84eb5fabfd959b5},
	{"depth4", scaleDepth4Options, "trimmed-mean", 0x1ad4d0c2dc570f3a},
	{"narrow", scaleNarrowTopOptions, "median", 0xf6fbf9baf6de8a9b},
	{"narrow", scaleNarrowTopOptions, "multi-krum", 0x8a3c209e630b2664},
}

// TestScaleEventCount holds how many events a run processes, by its closed
// form on every pinned shape. With B bottom clusters, C clusters and R
// rounds, a run processes every round B cohort landings — one event for a
// cohort's last upload — and C − 1 partials, and after every round but the
// last C − 1 global deliveries. It was B + R·(S + C − 1) + (R − 1)·(C − 1),
// S devices sampled a round, while a cohort's every upload was an event and
// round 0 began with a kick-off event per bottom cluster.
func TestScaleEventCount(t *testing.T) {
	for _, pin := range scaleComputedPins {
		o := pin.opts()
		o.Rule = pin.rule
		res := mustRunScale(t, o)
		b, c, r := res.Devices/o.Fanout, res.Clusters, o.Rounds
		if want := r*(b+c-1) + (r-1)*(c-1); res.Events != want {
			t.Errorf("%s %s: %d events, want R·(B + C − 1) + (R − 1)·(C − 1) = %d (B %d, C %d, R %d)",
				pin.shape, pin.rule, res.Events, want, b, c, r)
		}
	}
}

// scaleDepth2Options is a two-level tree: the bottom clusters are the top's
// children, so the top aggregates device-cluster partials directly.
func scaleDepth2Options() ScaleOptions {
	return ScaleOptions{
		Depth: 2, Fanout: 8, Devices: 2000, Gamma: 0.2, Cohort: 3,
		Rounds: 3, Dim: 8, Seed: 13,
	}
}

// scaleDepth4Options is a four-level tree with fanout 16: two top children,
// each over two levels of upper clusters.
func scaleDepth4Options() ScaleOptions {
	return ScaleOptions{
		Depth: 4, Fanout: 16, Devices: 8192, Gamma: 0.25, Cohort: 5,
		Rounds: 3, Dim: 8, Seed: 17,
	}
}

// scaleNarrowTopOptions has a top of three children: fewer than the eight
// value-pass workers TestScaleWorkersAgree runs.
func scaleNarrowTopOptions() ScaleOptions {
	return ScaleOptions{
		Depth: 3, Fanout: 4, Devices: 40, Gamma: 0.3, Cohort: 3,
		Rounds: 4, Dim: 8, Seed: 19,
	}
}

// TestScaleWorkersAgree holds that the value pass's worker count cannot move
// a result: on every pinned shape and rule, runScale at 2, 3 (uneven
// shares of the scale_cell top's 1 563 children) and 8 workers (more than
// the narrow top's three children) reports exactly what one worker does,
// and hits the pinned digest. Run under -race it also holds that the
// workers share nothing the pass's one barrier does not order, and that the
// pass shares nothing with the event loop running the next round beside it.
func TestScaleWorkersAgree(t *testing.T) {
	for _, pin := range scaleComputedPins {
		o := pin.opts()
		o.Rule = pin.rule
		var want string
		for _, workers := range []int{1, 2, 3, 8} {
			res, err := runScale(o, workers)
			if err != nil {
				t.Fatal(err)
			}
			if got := scaleDigest(res); got != pin.want {
				t.Errorf("%s %s, %d workers: computed-fields digest %#x, pinned %#x", pin.shape, pin.rule, workers, got, pin.want)
			}
			got := fmtScale(deterministicView(res))
			if workers == 1 {
				want = got
			} else if got != want {
				t.Errorf("%s %s: %d workers report\n%s\none worker\n%s", pin.shape, pin.rule, workers, got, want)
			}
		}
	}
}

// TestScaleResultPinned holds everything deterministic a small run reports —
// model error, every level's filter score, activations, buffers handed out,
// events, traffic, peak queue, the three σ summaries — in one %+v digest. It
// was regenerated once when a cluster came to arm one arrival at a time and
// to fill its cohort's updates into one scratch: that moved BuffersAllocated
// and PeakQueue, and deleting the Eager option changed the printed options;
// TestScaleComputedFieldsPinned shows nothing else moved. It was regenerated
// again when a cohort came to cost one event, its last upload's landing, and
// round 0 to start without kick-off events: that moved Events alone, which
// TestScaleEventCount holds by its formula. A digest that moves means a draw,
// an event's place in the order or an audit decision moved.
func TestScaleResultPinned(t *testing.T) {
	for _, pin := range []struct {
		rule string
		want uint64
	}{
		{"median", 0xc6d80ae87f8e900b},
		{"trimmed-mean", 0x1b2732a10805a130},
		{"multi-krum", 0x8e6cc86ba46d3726},
	} {
		o := smallScale()
		o.Rule = pin.rule
		h := fnv.New64a()
		fmt.Fprint(h, fmtScale(deterministicView(mustRunScale(t, o))))
		if got := h.Sum64(); got != pin.want {
			t.Errorf("%s: result digest %#x, pinned %#x", pin.rule, got, pin.want)
		}
	}
}

func TestScaleCohortBoundsActivations(t *testing.T) {
	o := smallScale()
	res := mustRunScale(t, o)
	bottomClusters := res.Devices / o.Fanout
	want := o.Cohort * bottomClusters * o.Rounds
	if res.Activations != want {
		t.Fatalf("Activations = %d, want %d (cohort %d × %d clusters × %d rounds)",
			res.Activations, want, o.Cohort, bottomClusters, o.Rounds)
	}
	if res.Net.PeakQueue == 0 {
		t.Fatal("PeakQueue gauge not populated")
	}
	// A bottom cluster has at most one event pending: its last upload, its
	// partial or the next global. An upper cluster's global or partial is
	// pending only while its whole subtree is idle — before it passes the
	// global on, after all its children's partials arrived — so by induction
	// a subtree never has more pending than bottom clusters. A value-pass
	// worker fills every bottom cluster's updates into one Cohort-vector
	// buffer; the count is one worker's.
	if res.Net.PeakQueue > bottomClusters {
		t.Fatalf("PeakQueue = %d, above one event per bottom cluster (%d)", res.Net.PeakQueue, bottomClusters)
	}
	if res.BuffersAllocated != o.Cohort {
		t.Fatalf("BuffersAllocated = %d, want a worker's cohort buffer's %d", res.BuffersAllocated, o.Cohort)
	}
}

func TestScaleGammaDegradesError(t *testing.T) {
	clean := smallScale()
	clean.Gamma = 0
	dirty := smallScale()
	dirty.Gamma = 0.45 // near the tolerance cliff for median
	a := mustRunScale(t, clean)
	b := mustRunScale(t, dirty)
	if a.RelErr >= b.RelErr {
		t.Fatalf("rel_err did not grow with γ: clean %v, γ=0.45 %v", a.RelErr, b.RelErr)
	}
	if a.RelErr > 0.5 {
		t.Fatalf("clean rel_err %v too large: aggregation broken", a.RelErr)
	}
}

func TestScaleOptionValidation(t *testing.T) {
	for _, g := range []float64{-0.1, 1, 1.5, math.NaN(), math.Inf(1)} {
		bad := smallScale()
		bad.Gamma = g
		if _, err := RunScale(bad); err == nil || !strings.Contains(err.Error(), "Gamma") {
			t.Errorf("Gamma %v: error %v, want one naming the field", g, err)
		}
	}
	bad := smallScale()
	bad.Rule = "no-such-rule"
	if _, err := RunScale(bad); err == nil {
		t.Fatal("unknown rule accepted")
	}
	// 0 means the default; a negative count is an error naming its field.
	for _, c := range []struct {
		field string
		set   func(*ScaleOptions)
	}{
		{"Cohort", func(o *ScaleOptions) { o.Cohort = -1 }},
		{"Dim", func(o *ScaleOptions) { o.Dim = -1 }},
		{"Rounds", func(o *ScaleOptions) { o.Rounds = -2 }},
		{"Devices", func(o *ScaleOptions) { o.Devices = -1 }},
		{"Fanout", func(o *ScaleOptions) { o.Fanout = -1 }},
	} {
		bad = smallScale()
		c.set(&bad)
		if _, err := RunScale(bad); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("negative %s: error %v, want one naming the field", c.field, err)
		}
	}
}

// TestScaleShapeFitsInt32 holds that a shape whose device or cluster count
// an int32 id cannot hold is an error naming its fields, and that one whose
// count is exactly math.MaxInt32 is not; validate is called directly for the
// shapes on the boundary, which are far too large to build.
func TestScaleShapeFitsInt32(t *testing.T) {
	// Fanout 8 to the 22nd power wraps an int to 0.
	if _, err := RunScale(ScaleOptions{Depth: 23, Fanout: 8, Devices: 1000}); err == nil || !strings.Contains(err.Error(), "Depth") {
		t.Errorf("Depth 23, Fanout 8: error %v, want one naming Depth", err)
	}
	const most = math.MaxInt32
	for _, c := range []struct {
		depth, fanout, devices int
		field                  string // "": valid
	}{
		{2, most, 1, ""}, // most devices in two clusters
		{2, most, most + 1, "Devices"},
		{2, 2, most - 1, ""},    // most − 1 devices
		{2, 2, most, "Devices"}, // most + 1 devices
		{2, 1, most - 1, ""},    // most clusters
		{2, 1, most, "Devices"}, // most + 1 clusters
		{32, 2, 1, "Depth"},     // 2^31 devices under one top child
		{31, 2, 1, ""},
	} {
		o := smallScale()
		o.Depth, o.Fanout, o.Devices = c.depth, c.fanout, c.devices
		_, err := o.validate()
		switch {
		case c.field == "" && err != nil:
			t.Errorf("Depth %d, Fanout %d, Devices %d: %v, want valid", c.depth, c.fanout, c.devices, err)
		case c.field != "" && (err == nil || !strings.Contains(err.Error(), c.field)):
			t.Errorf("Depth %d, Fanout %d, Devices %d: error %v, want one naming %s", c.depth, c.fanout, c.devices, err, c.field)
		}
	}
}

// scaleCellOptions is the benchmark's scale_cell workload at --seed 3: a
// 100k-device tolerance cell, two rounds (benchmark/workloads.go).
func scaleCellOptions() ScaleOptions {
	return ScaleOptions{
		Devices: 100_000, Depth: 3, Fanout: 8, Gamma: 0.1, Cohort: 4, Dim: 16,
		Rule: "median", Rounds: 2, Seed: 5,
	}
}

// TestRunScaleAllocBudget pins what one RunScale call allocates on the
// scale_cell shape, in bytes and in objects, as the most any of three calls
// after a first one allocates: the most this test measured in 42 runs at
// GOMAXPROCS 1 to 8, ten of them beside other test binaries (4 637 400
// bytes, 102 objects), plus a tenth of the objects and, so that the byte
// budget stays under the 5.10 MB below, 0.36 MB. What is
// left is standing state, every part of it a slab: the tree (the clusters
// and the member ids of each level, 1.7 MB), a 28-byte actor per cluster
// (0.39 MB), the bottom clusters' sampled device ids, one slab per round
// parity (0.40 MB), and their collection spreads (0.10 MB), the upper
// clusters' child lists and child orders, the orders one per parity
// (0.17 MB), the queue at one event per bottom cluster (1.1 MB), simnet's
// node table (0.2 MB), the top's inputs — the only partials stored —
// (0.24 MB) and the value pass's per-worker buffers (≈ 3 KB a worker past
// the first; RunScale uses at most four). The call allocated 5.10 MB while
// every sampled device's upload was held as a 16-byte (time, device) pair,
// a table mapped every cluster to its node and the queue was sized for one
// event per cluster; 8.80 MB while every cluster kept its partial and a
// 168-byte actor, and 9.31 MB while the upper clusters also held their
// inputs as vector and truth slabs. The same call allocated 49.7 MB when
// every derived random stream was a heap object, Tree.Validate built two
// 100k-entry maps and every dispatched event got its own Context; 31.9 MB in
// 302 k objects while the heap, the free list and the vector pool grew by
// append, every event, actor and vector was its own object and every arrival
// its own closure; and 19.56 MB in 28 259 objects while every sampled
// device's arrival was on the queue at once, each landed upload held a
// pooled update vector until its cluster aggregated, Tree.Validate sorted a
// copy of the ids and every cluster and member list was its own object.
// Budgets this close catch the return of any one of them. The object budget
// is the one that sees a per-event or per-arrival object come back, which a
// few bytes each would hide from the byte budget.
// `make profile-scale` prints where the bytes of a failing run come from.
func TestRunScaleAllocBudget(t *testing.T) {
	if testenv.UnderRace() {
		t.Skip("the race detector's own allocations are counted in TotalAlloc")
	}
	const (
		byteBudget = 5_000_000 // the benchmark's alloc_bytes_per_run reads in the same unit
		// 58–102 measured over GOMAXPROCS 1–8, six to eight per value-pass
		// worker past the first and the pass's own goroutine each round: at
		// this size the runtime's own few objects during the window show.
		objectBudget = 113
	)
	o := scaleCellOptions()
	run := func() (bytes, objects uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		mustRunScale(t, o)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
	}
	run() // the first call pays the process's first-use costs
	var bytes, objects uint64
	for i := 0; i < 3; i++ {
		b, o := run()
		bytes, objects = max(bytes, b), max(objects, o)
	}
	t.Logf("%d bytes (%.2f MB) in %d objects per RunScale (budget %.2f MB, %d objects)",
		bytes, float64(bytes)/1e6, objects, float64(byteBudget)/1e6, objectBudget)
	if bytes > byteBudget {
		t.Errorf("RunScale allocated %d bytes, budget %d", bytes, byteBudget)
	}
	if objects > objectBudget {
		t.Errorf("RunScale allocated %d objects, budget %d", objects, objectBudget)
	}
}

// TestScaleActorSize holds what a cluster costs while a run lasts: the
// scale_cell shape has 14 069 clusters, so each byte of scaleActor is 14 KB
// of every call, and TestRunScaleAllocBudget's margin would let the actor
// more than double before it failed.
func TestScaleActorSize(t *testing.T) {
	if got := unsafe.Sizeof(scaleActor{}); got != 28 {
		t.Fatalf("scaleActor is %d bytes, want 28", got)
	}
}

// BenchmarkScaleDevicesPerSec is the headline devices/sec benchmark: the
// scale_cell deployment driven through the event engine. The custom metric
// reports simulated device-rounds per wall-clock second.
func BenchmarkScaleDevicesPerSec(b *testing.B) {
	o := scaleCellOptions()
	b.ReportAllocs()
	b.ResetTimer()
	var last *ScaleResult
	for i := 0; i < b.N; i++ {
		res, err := RunScale(o)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.DevicesPerSec, "devices/sec")
	b.ReportMetric(float64(last.Devices), "devices")
}
