package experiments

import (
	"fmt"
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
// scale_cell shape: the figure this test measures plus about a tenth. What is
// left is standing state — the tree, one actor per cluster, the event pool
// and heap. The same call allocated 49.7 MB when every derived random stream
// was a heap object, Tree.Validate built two 100k-entry maps and every
// dispatched event got its own Context, so a budget this close catches the
// return of any one of them. `make profile-scale` prints where the bytes of
// a failing run come from.
func TestRunScaleAllocBudget(t *testing.T) {
	if testenv.UnderRace() {
		t.Skip("the race detector's own allocations are counted in TotalAlloc")
	}
	const budget = 38_000_000 // bytes; the benchmark's alloc_bytes_per_run reads in the same unit
	o := scaleCellOptions()
	run := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		mustRunScale(t, o)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	least := min(run(), run())
	t.Logf("%.2f MB per RunScale (budget %.2f MB)", float64(least)/1e6, float64(budget)/1e6)
	if least > budget {
		t.Errorf("RunScale allocated %d bytes, budget %d", least, budget)
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
