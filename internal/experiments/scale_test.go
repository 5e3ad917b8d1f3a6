package experiments

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"testing"

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

func TestScaleLazyMatchesEager(t *testing.T) {
	lazy := smallScale()
	eager := smallScale()
	eager.Eager = true
	a := mustRunScale(t, lazy)
	b := mustRunScale(t, eager)
	// σ accounting, filter precision/recall, and the model error must be
	// bit-identical: buffer identity never leaks into results.
	if a.RelErr != b.RelErr {
		t.Fatalf("RelErr diverged: %v vs %v", a.RelErr, b.RelErr)
	}
	if a.SigmaW != b.SigmaW || a.SigmaP != b.SigmaP || a.SigmaG != b.SigmaG {
		t.Fatal("σ streams diverged between lazy and eager state")
	}
	for l := range a.Levels {
		if a.Levels[l] != b.Levels[l] {
			t.Fatalf("level %d filter score diverged: %+v vs %+v", l, a.Levels[l], b.Levels[l])
		}
	}
	if a.Activations != b.Activations || a.Events != b.Events || a.Net != b.Net {
		t.Fatal("simulation trajectory diverged between lazy and eager state")
	}
	// The lazy engine must materialize far fewer buffers than one per
	// device; eager materializes exactly one per device.
	if b.BuffersAllocated != b.Devices {
		t.Fatalf("eager allocated %d buffers for %d devices", b.BuffersAllocated, b.Devices)
	}
	if a.BuffersAllocated >= b.BuffersAllocated {
		t.Fatalf("lazy allocated %d buffers, eager %d: laziness lost", a.BuffersAllocated, b.BuffersAllocated)
	}
}

// TestScaleResultPinned holds everything deterministic a small run reports —
// model error, every level's filter score, activations, buffers handed out,
// events, traffic, peak queue, the three σ summaries — against constants taken
// before the queue was reserved, the actors were cut from slabs, arrivals
// became argument timers, the round's stream was cached and the coordinate
// rules audited in one pass. A digest that moves means a draw, an event's
// place in the order or an audit decision moved.
func TestScaleResultPinned(t *testing.T) {
	for _, pin := range []struct {
		rule string
		want uint64
	}{
		{"median", 0xaee298c4d6102ea8},
		{"trimmed-mean", 0x5f50c56567d37ed1},
		{"multi-krum", 0x981e5ee778339afd},
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
// (19.56 MB, 28 259 objects) plus about a tenth. What is left is standing
// state — the tree (two objects per cluster, all of the object count), one
// actor per cluster and its slabs, and the queue, events and update vectors
// for what is in flight at the peak. The same call allocated 49.7 MB when
// every derived random stream was a heap object, Tree.Validate built two
// 100k-entry maps and every dispatched event got its own Context, and 31.9 MB
// in 302 k objects while the heap, the free list and the vector pool grew by
// append, every event, actor and vector was its own object and every arrival
// its own closure; budgets this close catch the return of any one of them.
// The object budget is the one that sees a per-event or per-arrival object
// come back, which a few bytes each would hide from the byte budget.
// `make profile-scale` prints where the bytes of a failing run come from.
func TestRunScaleAllocBudget(t *testing.T) {
	if testenv.UnderRace() {
		t.Skip("the race detector's own allocations are counted in TotalAlloc")
	}
	const (
		byteBudget   = 21_500_000 // the benchmark's alloc_bytes_per_run reads in the same unit
		objectBudget = 31_000
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
