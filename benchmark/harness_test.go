package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestQuickHarness runs the whole benchmark in -quick mode — every workload,
// the quality pass, the replay pass — and holds what it emits against
// BENCHMARK.json: the same workloads, the same metrics with the same units,
// none missing, none extra. The numbers themselves mean nothing at this size
// and are not looked at.
func TestQuickHarness(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every engine once")
	}
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	// Traces go to a scratch directory, not the checkout.
	sp.root = t.TempDir()
	// -quick's plan with the window cut to one run per workload: this test
	// reads names and units, never numbers.
	p := quickPlan(1)
	p.seconds = 0.1
	r, err := runAll(sp, allWorkloads(), p, true, true)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Quick {
		t.Error("a -quick report must be stamped quick")
	}
	if err := r.failure(); err != nil {
		t.Error(err)
	}
	if len(r.Workloads) != len(sp.Workloads) {
		t.Fatalf("report has %d workloads, BENCHMARK.json %d", len(r.Workloads), len(sp.Workloads))
	}
	for i, wr := range r.Workloads {
		if wr.Name != sp.Workloads[i].Name {
			t.Errorf("workload %d is %q, BENCHMARK.json says %q", i, wr.Name, sp.Workloads[i].Name)
		}
		if wr.Attempted < 1 || wr.Failed != 0 || !wr.Correct || wr.Samples < 1 {
			t.Errorf("%s: attempted %d, failed %d, correct %v, samples %d: %s", wr.Name, wr.Attempted, wr.Failed, wr.Correct, wr.Samples, wr.Error)
		}
		for kind, pair := range map[string]struct {
			specs []metricSpec
			got   map[string]metricValue
		}{"end_to_end": {sp.EndToEnd, wr.EndToEnd}, "per_layer": {sp.PerLayer, wr.PerLayer}} {
			if len(pair.got) != len(pair.specs) {
				t.Errorf("%s: %d %s metrics, BENCHMARK.json names %d", wr.Name, len(pair.got), kind, len(pair.specs))
			}
			for _, m := range pair.specs {
				v, ok := pair.got[m.Name]
				switch {
				case !nameRE.MatchString(m.Name):
					t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", m.Name)
				case !ok:
					t.Errorf("%s: %s metric %s is missing", wr.Name, kind, m.Name)
				case v.Unit != m.Unit:
					t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", wr.Name, m.Name, v.Unit, m.Unit)
				}
			}
		}
		for _, m := range sp.EndToEnd {
			if wr.EndToEnd[m.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", wr.Name, m.Name, wr.EndToEnd[m.Name].Value)
			}
		}
		if _, err := os.Stat(filepath.Join(sp.outDir(), "trace_"+wr.Name+".jsonl")); err != nil {
			t.Errorf("%s: no span trace written: %v", wr.Name, err)
		}
	}

	// A quick result is refused by -compare.
	path := filepath.Join(t.TempDir(), "quick.json")
	if err := r.write(path); err != nil {
		t.Fatal(err)
	}
	if _, err := readReport(path); err == nil {
		t.Error("-compare accepted a -quick result")
	}
}

func TestSpecNamesTheContract(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"table5_cell", "pipeline_round", "node_round", "scale_cell"}
	if len(sp.Workloads) != len(want) {
		t.Fatalf("BENCHMARK.json has %d workloads, want %d", len(sp.Workloads), len(want))
	}
	for i, w := range allWorkloads() {
		if w.name() != want[i] || sp.Workloads[i].Name != want[i] {
			t.Errorf("workload %d: code %q, BENCHMARK.json %q, want %q", i, w.name(), sp.Workloads[i].Name, want[i])
		}
	}
	setup := false
	for _, m := range sp.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup || len(sp.EndToEnd) != 5 {
		t.Errorf("end_to_end must be five metrics, one of them setup_s in s, lower is better")
	}
	if sp.RunSeconds < 1 || sp.RunSeconds > 60 {
		t.Errorf("run_seconds %d is outside [1, 60]", sp.RunSeconds)
	}
}
