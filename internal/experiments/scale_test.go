package experiments

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"testing"

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

// scaleDigest hashes every deterministic ScaleResult field except
// BuffersAllocated and Net.PeakQueue, the two counts that say how a run holds
// its state rather than what it computes. The fields are listed one by one,
// not printed with %+v, so an option added or deleted cannot move it; floats
// print in their shortest exact form.
func scaleDigest(r *ScaleResult) uint64 {
	h := fnv.New64a()
	o := r.Options
	fmt.Fprintln(h, o.Depth, o.Fanout, o.Devices, o.Gamma, o.Cohort, o.Rounds, o.Dim, o.Rule, o.Shards, o.Seed)
	fmt.Fprintln(h, r.Devices, r.Clusters, r.RelErr, r.Activations, r.Events)
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
// every level's filter score, activations, events, traffic, the three σ
// summaries — for three rules on the small shape and on the scale_cell shape,
// against digests taken while every sampled device's arrival was armed at
// once and its update was filled as it landed. Arming one arrival per cluster
// and filling the cohort's updates when it aggregates may move only the two
// counts scaleDigest leaves out: a device's values are a pure function of
// (seed, round, device), and its arrival fires at the same time in the same
// order.
func TestScaleComputedFieldsPinned(t *testing.T) {
	for _, pin := range []struct {
		shape string
		opts  func() ScaleOptions
		rule  string
		want  uint64
	}{
		{"small", smallScale, "median", 0xae6cd9ca34ce7778},
		{"small", smallScale, "trimmed-mean", 0x44f8ee3420987b5b},
		{"small", smallScale, "multi-krum", 0x762d357c4b667c91},
		{"cell", scaleCellOptions, "median", 0xec1dc564f7a60794},
		{"cell", scaleCellOptions, "trimmed-mean", 0x634b9455da602922},
		{"cell", scaleCellOptions, "multi-krum", 0xe833857a6350cd1e},
	} {
		o := pin.opts()
		o.Rule = pin.rule
		if got := scaleDigest(mustRunScale(t, o)); got != pin.want {
			t.Errorf("%s %s: computed-fields digest %#x, pinned %#x", pin.shape, pin.rule, got, pin.want)
		}
	}
}

// TestScaleResultPinned holds everything deterministic a small run reports —
// model error, every level's filter score, activations, buffers handed out,
// events, traffic, peak queue, the three σ summaries — in one %+v digest. It
// was regenerated once when a cluster came to arm one arrival at a time and
// to fill its cohort's updates into one scratch: that moved BuffersAllocated
// and PeakQueue, and deleting the Eager option changed the printed options;
// TestScaleComputedFieldsPinned shows nothing else moved. A digest that moves
// means a draw, an event's place in the order or an audit decision moved.
func TestScaleResultPinned(t *testing.T) {
	for _, pin := range []struct {
		rule string
		want uint64
	}{
		{"median", 0x92ead2817eacbd79},
		{"trimmed-mean", 0xddfc59432ec9ba22},
		{"multi-krum", 0xbc076e131feb6314},
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
	// A cluster has at most one event pending at a time, and every bottom
	// cluster fills the same Cohort-vector scratch.
	if res.Net.PeakQueue > res.Clusters {
		t.Fatalf("PeakQueue = %d, above one event per cluster (%d)", res.Net.PeakQueue, res.Clusters)
	}
	if res.BuffersAllocated != o.Cohort {
		t.Fatalf("BuffersAllocated = %d, want the cohort scratch's %d", res.BuffersAllocated, o.Cohort)
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
	bad := smallScale()
	bad.Gamma = 1.5
	if _, err := RunScale(bad); err == nil {
		t.Fatal("Gamma 1.5 accepted")
	}
	bad = smallScale()
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

// scaleCellOptions is the benchmark's scale_cell workload at --seed 3: a
// 100k-device tolerance cell, two rounds (benchmark/workloads.go).
func scaleCellOptions() ScaleOptions {
	return ScaleOptions{
		Devices: 100_000, Depth: 3, Fanout: 8, Gamma: 0.1, Cohort: 4, Dim: 16,
		Rule: "median", Rounds: 2, Seed: 5,
	}
}

// TestRunScaleAllocBudget pins what one RunScale call allocates on the
// scale_cell shape, in bytes and in objects: the figures this test measures
// (9.31 MB, 63–79 objects) plus a margin. What is left is standing state,
// every part of it a slab: the tree (the clusters and the member ids of each
// level, 1.7 MB), one actor per cluster (2.7 MB) with its partial (1.8 MB),
// the bottom clusters' arrival lists (0.8 MB) and the upper clusters' input
// and child lists (0.6 MB), the queue at one event per cluster (1.2 MB) and
// simnet's node table (0.2 MB). The same call allocated 49.7 MB when every
// derived random stream was a heap object, Tree.Validate built two 100k-entry
// maps and every dispatched event got its own Context; 31.9 MB in 302 k
// objects while the heap, the free list and the vector pool grew by append,
// every event, actor and vector was its own object and every arrival its own
// closure; and 19.56 MB in 28 259 objects while every sampled device's
// arrival was on the queue at once, each landed upload held a pooled update
// vector until its cluster aggregated, Tree.Validate sorted a copy of the ids
// and every cluster and member list was its own object. Budgets this close
// catch the return of any one of them. The object budget is the one that
// sees a per-event or per-arrival object come back, which a few bytes each
// would hide from the byte budget.
// `make profile-scale` prints where the bytes of a failing run come from.
func TestRunScaleAllocBudget(t *testing.T) {
	if testenv.UnderRace() {
		t.Skip("the race detector's own allocations are counted in TotalAlloc")
	}
	const (
		byteBudget = 10_300_000 // the benchmark's alloc_bytes_per_run reads in the same unit
		// 63–79 measured over GOMAXPROCS 1–8: at this size the runtime's
		// own few objects during the window show, so the margin is wider.
		objectBudget = 100
	)
	o := scaleCellOptions()
	run := func() (bytes, objects uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		mustRunScale(t, o)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
	}
	b1, o1 := run()
	b2, o2 := run()
	bytes, objects := min(b1, b2), min(o1, o2)
	t.Logf("%.2f MB in %d objects per RunScale (budget %.2f MB, %d objects)",
		float64(bytes)/1e6, objects, float64(byteBudget)/1e6, objectBudget)
	if bytes > byteBudget {
		t.Errorf("RunScale allocated %d bytes, budget %d", bytes, byteBudget)
	}
	if objects > objectBudget {
		t.Errorf("RunScale allocated %d objects, budget %d", objects, objectBudget)
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
