package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{9, 1, 5}, 5},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("median reordered its input: %v", xs)
	}
}

// The tail is read at the highest percentile that still has ten samples
// beyond it: anything higher is one or two outliers, not a tail.
func TestTailPercentileSelection(t *testing.T) {
	for _, c := range []struct {
		n     int
		wantP float64
	}{
		{1, 50}, {19, 50}, {25, 50}, {39, 50},
		{40, 75}, {99, 75},
		{100, 90}, {199, 90},
		{200, 95}, {999, 95},
		{1000, 99}, {5000, 99},
	} {
		// 1..n out of order: 7919 is prime and no n here is a multiple of it,
		// so i → 7919·i mod n is a permutation.
		xs := make([]float64, c.n)
		for i := range xs {
			xs[(i*7919)%c.n] = float64(i + 1)
		}
		p, v := tailPercentile(xs)
		if p != c.wantP {
			t.Errorf("n=%d: tail read at p%v, want p%v", c.n, p, c.wantP)
			continue
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if c.n >= 20 && beyond < 10 {
			t.Errorf("n=%d: p%v = %v has only %d samples beyond it", c.n, p, v, beyond)
		}
		if want := (int(p)*c.n + 99) / 100; v != float64(want) {
			t.Errorf("n=%d: p%v of 1..n = %v, want nearest rank %d", c.n, p, v, want)
		}
	}
}

// One window in five reads slow on a shared machine; the median of the
// per-window medians must not follow it, nor a single slow run in a window.
func TestMedianOfWindows(t *testing.T) {
	m := &measurement{wins: []window{
		{runs: []float64{1.0, 1.1, 9.0}},
		{runs: []float64{1.0, 1.0, 1.0}},
		{runs: []float64{1.8, 1.9, 1.7}}, // the slow window
		{runs: []float64{1.2, 1.0, 1.1}},
		{runs: []float64{1.05, 1.05}},
	}}
	// Window medians: 1.1, 1.0, 1.8, 1.1, 1.05 → 1.1.
	if got := m.runP50(); got != 1.1 {
		t.Errorf("runP50 = %v, want 1.1", got)
	}
	medians := m.perWindow(func(w window) float64 { return median(w.runs) })
	if got, want := spread(medians), (1.8-1.0)/1.1; math.Abs(got-want) > 1e-12 {
		t.Errorf("window spread = %v, want %v", got, want)
	}
	if got := len(m.allRuns()); got != 14 {
		t.Errorf("allRuns has %d samples, want 14", got)
	}
}

func TestEndToEndPerWindowRates(t *testing.T) {
	tc := &table5Cell{}
	if err := tc.setup(1); err != nil {
		t.Fatal(err)
	}
	m := &measurement{
		w:      tc,
		setups: []float64{0.3, 0.1, 0.2},
		wins: []window{
			{runs: []float64{1, 1}, wall: 2, alloc: 200},
			{runs: []float64{1, 1, 1, 1}, wall: 8, alloc: 800}, // a stalled window: half the throughput
			{runs: []float64{1, 1}, wall: 2, alloc: 220},
		},
		quality: 0.7,
	}
	got := m.endToEnd()
	dr := float64(tc.deviceRounds())
	for name, want := range map[string]float64{
		"setup_s":             0.2,
		"run_s_p50":           1,
		"device_rounds_per_s": dr, // median of dr, dr/2, dr
		"alloc_bytes_per_run": 110,
		"final_accuracy":      0.7,
	} {
		if got[name] != want {
			t.Errorf("%s = %v, want %v", name, got[name], want)
		}
	}
	if len(got) != 5 {
		t.Errorf("endToEnd has %d metrics, want 5", len(got))
	}
}

func TestRatioAndSpreadOfNothing(t *testing.T) {
	if ratio(1, 0) != 0 || spread(nil) != 0 || spread([]float64{0, 0}) != 0 {
		t.Error("ratio and spread must read 0 on an absent base")
	}
}
