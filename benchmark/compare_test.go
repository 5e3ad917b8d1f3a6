package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "run_s_p50", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "device_rounds_per_s", Better: "higher", Bound: 0.10}
	alloc := metricSpec{Name: "alloc_bytes_per_run", Better: "lower", Bound: 0.05}
	for _, c := range []struct {
		m                    metricSpec
		old, new, sOld, sNew float64
		want                 verdict
	}{
		{lower, 1.00, 1.05, 0.02, 0.02, unchanged},
		{lower, 1.00, 1.11, 0.02, 0.02, regressed},
		{lower, 1.00, 0.85, 0.02, 0.02, improved},
		{higher, 100, 111, 0.02, 0.02, improved},
		{higher, 100, 89, 0.02, 0.02, regressed},
		// Windows that disagree by more than the bound resolve nothing.
		{lower, 1.00, 1.50, 0.02, 0.12, unresolved},
		{higher, 100, 50, 0.30, 0.02, unresolved},
		// The window spread says nothing about a metric not read off the windows.
		{alloc, 100, 106, 0.30, 0.30, regressed},
		{alloc, 100, 104, 0.30, 0.30, unchanged},
	} {
		if got := judge(c.m, c.old, c.new, c.sOld, c.sNew); got != c.want {
			t.Errorf("%s %v → %v (spreads %v, %v): %s, want %s", c.m.Name, c.old, c.new, c.sOld, c.sNew, got, c.want)
		}
	}
}

func fakeReport(sp *spec, runS float64, failed int) *report {
	r := &report{}
	for _, w := range sp.Workloads {
		wr := &workloadReport{Name: w.Name, Correct: failed == 0, Attempted: 100, Failed: failed, WindowSpread: 0.01,
			EndToEnd: map[string]metricValue{}, PerLayer: map[string]metricValue{}}
		for _, m := range sp.EndToEnd {
			wr.EndToEnd[m.Name] = metricValue{Value: 1, Unit: m.Unit}
		}
		wr.EndToEnd["run_s_p50"] = metricValue{Value: runS, Unit: "s"}
		for _, m := range sp.PerLayer {
			wr.PerLayer[m.Name] = metricValue{Value: 7, Unit: m.Unit}
		}
		r.Workloads = append(r.Workloads, wr)
	}
	return r
}

func TestCompareFilesAndSets(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, r *report) string {
		path := filepath.Join(dir, name)
		if err := r.write(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", fakeReport(sp, 1.00, 0))
	same := write("same.json", fakeReport(sp, 1.02, 0))
	slow := write("slow.json", fakeReport(sp, 1.40, 0))
	failing := write("failing.json", fakeReport(sp, 1.00, 3))

	var out bytes.Buffer
	if err := compareFiles(sp, base, same, &out); err != nil {
		t.Errorf("a change inside the bound was rejected: %v", err)
	}
	if !strings.Contains(out.String(), "unchanged") || strings.Contains(out.String(), "regressed") {
		t.Errorf("unexpected verdicts:\n%s", out.String())
	}
	if err := compareFiles(sp, base, slow, &out); err == nil {
		t.Error("a 40 % slower run_s_p50 was not a regression")
	}
	if err := compareFiles(sp, base, failing, &out); err == nil {
		t.Error("a larger failed share was accepted")
	}

	a, b := fakeReport(sp, 1.00, 0), fakeReport(sp, 1.02, 0)
	if err := assertSetsAgree(sp, a, b, &out); err != nil {
		t.Errorf("sets inside the bound disagree: %v", err)
	}
	if err := assertSetsAgree(sp, a, fakeReport(sp, 0.60, 0), &out); err != nil {
		t.Errorf("a second set that reads better was rejected: %v", err)
	}
	if err := assertSetsAgree(sp, a, fakeReport(sp, 1.40, 0), &out); err == nil {
		t.Error("a second set 40 % slower than the first agreed")
	}
	b.Workloads[0].EndToEnd["final_accuracy"] = metricValue{Value: 1.0000001, Unit: "fraction"}
	if err := assertSetsAgree(sp, a, b, &out); err == nil {
		t.Error("final_accuracy must agree exactly between sets")
	}
	b = fakeReport(sp, 1.00, 0)
	b.Workloads[1].PerLayer["nn.train_calls"] = metricValue{Value: 8, Unit: "count"}
	if err := assertSetsAgree(sp, a, b, &out); err == nil {
		t.Error("a count metric must agree exactly between sets")
	}
}
