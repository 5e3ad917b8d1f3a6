package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// verdict is what -compare says about one end-to-end metric on one workload.
type verdict string

const (
	improved   verdict = "improved"
	unchanged  verdict = "unchanged"
	regressed  verdict = "regressed"
	unresolved verdict = "unresolved"
)

// worsening is how much worse newV is than oldV as a share of oldV, in the
// metric's own direction: positive is worse, whichever way better points.
func worsening(m metricSpec, oldV, newV float64) float64 {
	if oldV == 0 {
		return 0
	}
	d := (newV - oldV) / math.Abs(oldV)
	if m.Better == "higher" {
		d = -d
	}
	return d
}

// judge holds a change against the metric's bound. The two metrics read off
// the timed windows are unresolved, not unchanged, when either side's windows
// disagreed by more than the bound: a difference smaller than the
// measurement's own spread says nothing either way.
func judge(m metricSpec, oldV, newV, oldSpread, newSpread float64) verdict {
	windowed := m.Name == "run_s_p50" || m.Name == "device_rounds_per_s"
	w := worsening(m, oldV, newV)
	switch {
	case windowed && (oldSpread > m.Bound || newSpread > m.Bound):
		return unresolved
	case w > m.Bound:
		return regressed
	case w < -m.Bound:
		return improved
	}
	return unchanged
}

func readReport(path string) (*report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Quick {
		return nil, fmt.Errorf("%s is a -quick result: its numbers mean nothing and are not compared", path)
	}
	return &r, nil
}

func (r *report) workload(name string) *workloadReport {
	for _, wr := range r.Workloads {
		if wr.Name == name {
			return wr
		}
	}
	return nil
}

// compareFiles prints one verdict per (workload, end-to-end metric) and
// fails on any regression or larger failed share.
func compareFiles(sp *spec, oldPath, newPath string, w io.Writer) error {
	oldR, err := readReport(oldPath)
	if err != nil {
		return err
	}
	newR, err := readReport(newPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "old: %s commit %s, %s, GOMAXPROCS %d\nnew: %s commit %s, %s, GOMAXPROCS %d\n\n",
		oldPath, oldR.Env.Commit, oldR.Env.CPUModel, oldR.Env.GOMAXPROCS,
		newPath, newR.Env.Commit, newR.Env.CPUModel, newR.Env.GOMAXPROCS)
	fmt.Fprintf(w, "%-16s %-22s %14s %14s %9s %7s  %s\n", "workload", "metric", "old", "new", "worse by", "bound", "verdict")
	bad := 0
	for _, ws := range sp.Workloads {
		o, n := oldR.workload(ws.Name), newR.workload(ws.Name)
		if o == nil || n == nil {
			return fmt.Errorf("workload %s is missing from one of the results", ws.Name)
		}
		for _, m := range sp.EndToEnd {
			ov, ok1 := o.EndToEnd[m.Name]
			nv, ok2 := n.EndToEnd[m.Name]
			if !ok1 || !ok2 {
				return fmt.Errorf("%s: metric %s is missing from one of the results", ws.Name, m.Name)
			}
			v := judge(m, ov.Value, nv.Value, o.WindowSpread, n.WindowSpread)
			if v == regressed {
				bad++
			}
			fmt.Fprintf(w, "%-16s %-22s %14.6g %14.6g %+8.1f%% %6.0f%%  %s\n",
				ws.Name, m.Name, ov.Value, nv.Value, 100*worsening(m, ov.Value, nv.Value), 100*m.Bound, v)
		}
		if os, ns := ratio(float64(o.Failed), float64(o.Attempted)), ratio(float64(n.Failed), float64(n.Attempted)); ns > os {
			bad++
			fmt.Fprintf(w, "%-16s failed share rose from %.4f to %.4f\n", ws.Name, os, ns)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d regressions", bad)
	}
	return nil
}

// assertSetsAgree holds two passes of the same code against each other by the
// rule a change is held to: no end-to-end metric of the second set worse than
// the first's by more than its bound, final_accuracy and every per-layer
// metric whose unit is count exactly equal. Code that regresses against
// itself cannot show that a change made a difference. (The second set runs in
// a process the first has warmed, so it may well read better.)
func assertSetsAgree(sp *spec, a, b *report, w io.Writer) error {
	fmt.Fprintf(w, "\n%-16s %-22s %14s %14s %9s %7s\n", "workload", "metric", "set 1", "set 2", "worse by", "bound")
	var bad []string
	for _, ws := range sp.Workloads {
		x, y := a.workload(ws.Name), b.workload(ws.Name)
		for _, m := range sp.EndToEnd {
			xv, yv := x.EndToEnd[m.Name].Value, y.EndToEnd[m.Name].Value
			d := worsening(m, xv, yv)
			fmt.Fprintf(w, "%-16s %-22s %14.6g %14.6g %+8.1f%% %6.0f%%\n", ws.Name, m.Name, xv, yv, 100*d, 100*m.Bound)
			if exact := m.Name == "final_accuracy"; (exact && xv != yv) || d > m.Bound {
				bad = append(bad, ws.Name+"/"+m.Name)
			}
		}
		for _, m := range sp.PerLayer {
			if xv, yv := x.PerLayer[m.Name].Value, y.PerLayer[m.Name].Value; m.Unit == "count" && xv != yv {
				fmt.Fprintf(w, "%-16s %-22s %14.6g %14.6g   (count: must repeat exactly)\n", ws.Name, m.Name, xv, yv)
				bad = append(bad, ws.Name+"/"+m.Name)
			}
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("two sets of the same code disagree on %v", bad)
	}
	return nil
}
