// Command benchmark is the repo's one performance benchmark: four named
// workloads, one per engine, each measured end to end and then taken apart
// layer by layer from outside. BENCHMARK.json at the root names every
// metric, unit, direction and bound; README.md in this directory says why
// these and how to read them.
//
//	go run ./benchmark                        # all four workloads, interleaved windows, full report
//	go run ./benchmark -sets 2                # twice in one process, asserting the sets agree
//	go run ./benchmark -compare old.json new.json
//	go run ./benchmark -quick                 # smoke test; numbers mean nothing
//	go run ./benchmark --workload table5_cell --seed 3 --seconds 15 --trace 0
//
// The last form is the driver's: one workload, one JSON object on the last
// line of standard output, end-to-end metrics with --trace 0 and per-layer
// metrics with --trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// options are the command-line flags.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	quick    bool
	sets     int
	compare  bool
	json     string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this workload alone and print the driver's one-line JSON result")
	flag.Uint64Var(&o.seed, "seed", 1, "seeds the scenario data and the engine seeds seed..seed+7")
	flag.Float64Var(&o.seconds, "seconds", 30, "measured seconds per workload, split into 5 windows")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
	flag.BoolVar(&o.quick, "quick", false, "smoke test: one 1 s window, 5-round quality pass, one replay run; refused by -compare")
	flag.IntVar(&o.sets, "sets", 1, "run the whole benchmark this many times and assert the sets agree within the bounds")
	flag.BoolVar(&o.compare, "compare", false, "compare two result files: -compare old.json new.json")
	flag.StringVar(&o.json, "json", "", "where the full report goes (default benchmark/out/result.json)")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	sp, err := loadSpec()
	if err != nil {
		return err
	}
	if o.compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two result files: old.json new.json")
		}
		return compareFiles(sp, flag.Arg(0), flag.Arg(1), os.Stdout)
	}
	// Load shape: closed loop, one driver goroutine, one run in flight. The
	// engines' own Workers stay at their default (0 → GOMAXPROCS), as users
	// leave them, so the processor count is pinned here and recorded.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	p := fullPlan(o.seed, o.seconds)
	if o.quick {
		p = quickPlan(o.seed)
	}
	if o.workload != "" {
		return driverRun(sp, o.workload, p, o.trace == 1)
	}

	var reports []*report
	for s := 0; s < o.sets; s++ {
		r, err := runAll(sp, allWorkloads(), p, true, true)
		if err != nil {
			return err
		}
		reports = append(reports, r)
		r.print(os.Stdout, sp)
	}
	out := o.json
	if out == "" {
		out = filepath.Join(sp.outDir(), "result.json")
	}
	for s, r := range reports {
		path := out
		if s > 0 {
			path = fmt.Sprintf("%s.set%d", out, s+1)
		}
		if err := r.write(path); err != nil {
			return err
		}
		progress("report written to %s", path)
	}
	for _, r := range reports {
		if err := r.failure(); err != nil {
			return err
		}
	}
	for s := 1; s < len(reports); s++ {
		if err := assertSetsAgree(sp, reports[0], reports[s], os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

// driverRun is the driver's contract: one workload, and on the last line of
// standard output one JSON object with exactly correct, attempted, failed
// and metrics.
func driverRun(sp *spec, name string, p plan, traced bool) error {
	var picked []workload
	for _, w := range allWorkloads() {
		if w.name() == name {
			picked = append(picked, w)
		}
	}
	if len(picked) == 0 {
		return fmt.Errorf("unknown workload %q", name)
	}
	r, err := runAll(sp, picked, p, !traced, traced)
	if err != nil {
		return err
	}
	wr := r.Workloads[0]
	metrics := wr.EndToEnd
	if traced {
		metrics = wr.PerLayer
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{wr.Correct, wr.Attempted, wr.Failed, metrics})
	if err != nil {
		return err
	}
	for _, f := range wr.Flags {
		fmt.Fprintln(os.Stderr, "benchmark: flag:", f)
	}
	fmt.Println(string(line))
	return r.failure()
}

// runAll is one benchmark pass over ws: set up and warm every workload,
// measure the windows round-robin across workloads (so a slow stretch of the
// machine lands on one window of each, not on all windows of one), then the
// untimed quality pass (endToEnd) and the replay pass (perLayer).
func runAll(sp *spec, ws []workload, p plan, endToEnd, perLayer bool) (*report, error) {
	ms := make([]*measurement, len(ws))
	for i, w := range ws {
		ms[i] = &measurement{w: w, p: p}
		progress("%s: set-up and warm-up", w.name())
		if err := ms[i].setup(); err != nil {
			return nil, err
		}
		ms[i].warm()
	}
	for win := 0; win < p.windows; win++ {
		for _, m := range ms {
			progress("%s: window %d of %d", m.w.name(), win+1, p.windows)
			m.window()
		}
	}
	r := &report{Quick: p.quick, Seed: p.seed, Seconds: p.seconds, Env: stampEnv(sp)}
	for _, m := range ms {
		wr := newWorkloadReport(m)
		if endToEnd {
			progress("%s: quality pass", m.w.name())
			m.qualityPass()
			var err error
			if wr.EndToEnd, err = label(sp.EndToEnd, m.endToEnd()); err != nil {
				return nil, err
			}
		}
		if perLayer {
			progress("%s: replay pass", m.w.name())
			rc := newReplayCtx(sp, m)
			if err := m.w.replay(rc); err != nil {
				m.fail(fmt.Errorf("replay pass: %w", err))
			}
			if err := rc.writeTrace(); err != nil {
				return nil, err
			}
			var err error
			if wr.PerLayer, err = label(sp.PerLayer, rc.vals); err != nil {
				return nil, err
			}
			wr.LayerShares, wr.Flags = rc.shares, rc.flags
		}
		wr.finish(m)
		r.Workloads = append(r.Workloads, wr)
	}
	return r, nil
}

func progress(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
}

// report is the full result document -compare and -sets read.
type report struct {
	Quick     bool              `json:"quick"`
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds_per_workload"`
	Env       env               `json:"env"`
	Workloads []*workloadReport `json:"workloads"`
}

// workloadReport is one workload's numbers with the sample counts behind
// them.
type workloadReport struct {
	Name      string `json:"name"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Error     string `json:"error,omitempty"`
	// Samples is the number of timed runs; WindowRuns splits it by window.
	Samples    int   `json:"samples"`
	WindowRuns []int `json:"window_runs"`
	// TailPercentile is the percentile the *_run_s_tail metric was read at:
	// the highest with at least ten samples beyond it.
	TailPercentile float64 `json:"tail_percentile"`
	// WindowSpread is (max − min) ÷ median of the per-window median run time.
	WindowSpread float64                `json:"window_spread"`
	EndToEnd     map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer     map[string]metricValue `json:"per_layer,omitempty"`
	// LayerShares is each replayed layer's busy time over the run time at one
	// processor: the ceiling on what speeding that layer up can save.
	LayerShares map[string]float64 `json:"layer_shares,omitempty"`
	// Flags are findings that do not fail the run but must be read, such as
	// an unattributed share outside [−0.05, 0.40].
	Flags []string `json:"flags,omitempty"`
}

func newWorkloadReport(m *measurement) *workloadReport {
	wr := &workloadReport{Name: m.w.name(), Samples: len(m.allRuns())}
	for _, w := range m.wins {
		wr.WindowRuns = append(wr.WindowRuns, len(w.runs))
	}
	wr.TailPercentile, _ = tailPercentile(m.allRuns())
	wr.WindowSpread = spread(m.perWindow(func(w window) float64 { return median(w.runs) }))
	return wr
}

// finish copies the run counts once every pass that can fail a run is over.
func (wr *workloadReport) finish(m *measurement) {
	wr.Attempted, wr.Failed = m.attempted, m.failed
	wr.Correct = m.failed == 0
	if m.firstErr != nil {
		wr.Error = m.firstErr.Error()
	}
}

// failure is the guard that turns a bad pass into a non-zero exit: on an
// unmodified tree no run fails and no replay count mismatches.
func (r *report) failure() error {
	for _, wr := range r.Workloads {
		if !wr.Correct {
			return fmt.Errorf("%s: %d of %d runs failed: %s", wr.Name, wr.Failed, wr.Attempted, wr.Error)
		}
	}
	return nil
}

func (r *report) write(path string) error {
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// print writes every metric by name with its unit, in BENCHMARK.json order.
func (r *report) print(w io.Writer, sp *spec) {
	fmt.Fprintf(w, "seed %d, %.0f s per workload, GOMAXPROCS %d of %d, %s, commit %s, quick=%v\n",
		r.Seed, r.Seconds, r.Env.GOMAXPROCS, r.Env.NProc, r.Env.GoVersion, r.Env.Commit, r.Quick)
	for _, wr := range r.Workloads {
		fmt.Fprintf(w, "\n%s: %d runs attempted, %d failed; %d timed samples %v, tail p%.0f, window spread %.3f\n",
			wr.Name, wr.Attempted, wr.Failed, wr.Samples, wr.WindowRuns, wr.TailPercentile, wr.WindowSpread)
		for _, m := range sp.EndToEnd {
			if v, ok := wr.EndToEnd[m.Name]; ok {
				fmt.Fprintf(w, "  %-40s %16.6g %s\n", m.Name, v.Value, v.Unit)
			}
		}
		for _, m := range sp.PerLayer {
			if v, ok := wr.PerLayer[m.Name]; ok {
				fmt.Fprintf(w, "  %-40s %16.6g %s\n", m.Name, v.Value, v.Unit)
			}
		}
		layers := make([]string, 0, len(wr.LayerShares))
		for l := range wr.LayerShares {
			layers = append(layers, l)
		}
		sort.Slice(layers, func(i, j int) bool { return wr.LayerShares[layers[i]] > wr.LayerShares[layers[j]] })
		for _, l := range layers {
			fmt.Fprintf(w, "  share of run at one processor: %-14s %6.1f %%\n", l, 100*wr.LayerShares[l])
		}
		for _, f := range wr.Flags {
			fmt.Fprintf(w, "  FLAG: %s\n", f)
		}
	}
}
