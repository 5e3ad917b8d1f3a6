// Command abdhfl-pipeline studies the asynchronous pipeline learning
// workflow (the paper's Fig 2 and Eq. 3):
//
//   - default / -timeline: one run's per-round phase breakdown
//     (σ_w, σ_p, σ_g, σ, ν) plus accuracy and virtual duration;
//   - -sweep: the flag-level x delay-case sweep behind Table VIII — for each
//     of the four delay regimes (big/small partial-aggregation τ' crossed
//     with big/small global-aggregation τ_g) it reports the efficiency
//     indicator ν at every admissible flag level.
package main

import (
	"flag"
	"fmt"
	"os"

	"abdhfl"
	"abdhfl/internal/experiments"
	"abdhfl/internal/metrics"
	"abdhfl/internal/pipeline"
	"abdhfl/internal/telemetry"
)

func main() {
	var (
		levels  = flag.Int("levels", 4, "tree depth (more levels = more flag choices)")
		m       = flag.Int("m", 3, "cluster size")
		top     = flag.Int("top", 3, "top-level node count")
		rounds  = flag.Int("rounds", 20, "global rounds")
		samples = flag.Int("samples", 80, "samples per client")
		flagLvl = flag.Int("flag", 1, "flag level for the timeline run")
		sweep   = flag.Bool("sweep", false, "run the flag-level x delay-case sweep (Table VIII)")
		trade   = flag.Bool("tradeoff", false, "run the efficiency/accuracy trade-off per flag level (§III-D2)")
		taddr   = flag.String("telemetry-addr", "",
			"serve Prometheus /metrics, expvar, and pprof on this address (e.g. localhost:9090); empty disables")
	)
	flag.Parse()
	reg := telemetry.MaybeServe(*taddr)

	base := abdhfl.Scenario{
		Levels: *levels, ClusterSize: *m, TopNodes: *top,
		Rounds: *rounds, SamplesPerClient: *samples,
		TestSamples: 600, ValidationSamples: 400, EvalEvery: 5,
	}.WithDefaults()
	mat, err := abdhfl.Build(base)
	if err != nil {
		fatal(err)
	}
	mat.Telemetry = reg

	if *sweep {
		runSweep(base, reg)
		return
	}
	if *trade {
		runTradeoff(base, reg)
		return
	}
	runTimeline(mat, *flagLvl)
}

func runTimeline(mat *abdhfl.Materials, flagLevel int) {
	res, err := mat.RunPipeline(1, flagLevel, pipeline.DefaultTiming())
	if err != nil {
		fatal(err)
	}
	fmt.Printf("Pipeline workflow timeline — flag level %d (tree depth %d)\n\n", flagLevel, mat.Tree.Depth())
	table := metrics.Table{Header: []string{"round", "σ_w", "σ_p", "σ_g", "σ", "ν"}}
	for _, t := range res.Timings {
		table.AddRow(
			fmt.Sprint(t.Round),
			fmt.Sprintf("%.1f", t.SigmaW),
			fmt.Sprintf("%.1f", t.SigmaP),
			fmt.Sprintf("%.1f", t.SigmaG),
			fmt.Sprintf("%.1f", t.Sigma),
			fmt.Sprintf("%.3f", t.Nu),
		)
	}
	fmt.Print(table.Render())
	fmt.Println()
	fmt.Print(pipeline.RenderTimeline(res.Timings, 60))
	fmt.Printf("\nmean ν = %.3f   virtual duration = %.1f ms   merges = %d   final accuracy = %s\n",
		res.MeanNu, float64(res.Duration), res.MergedGlobals, metrics.Pct(res.FinalAccuracy))
	fmt.Printf("network: %d messages, %d bytes, %d dropped, %d duplicated, %d to unregistered nodes\n",
		res.Network.Messages, res.Network.Volume,
		res.Network.Dropped, res.Network.Duplicated, res.Network.DroppedUnregistered)
}

func runSweep(s abdhfl.Scenario, reg *telemetry.Registry) {
	rows, err := experiments.RunFlagSweep(experiments.FlagSweepOptions{
		Levels:      s.Levels,
		ClusterSize: s.ClusterSize,
		TopNodes:    s.TopNodes,
		Rounds:      s.Rounds,
		Samples:     s.SamplesPerClient,
		Telemetry:   reg,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("Flag-level sweep (Eq. 3 / Table VIII) — depth %d, %d rounds\n\n", s.Levels, s.Rounds)
	fmt.Print(experiments.FlagSweepTable(rows).Render())
	fmt.Println("\nν = (σ_p+σ_g)/σ: the fraction of the first-upload-to-global window")
	fmt.Println("spent training rather than waiting. Deeper flag levels trade staleness")
	fmt.Println("(more correction-factor reliance) for higher ν, as in Appendix E.")
}

func runTradeoff(s abdhfl.Scenario, reg *telemetry.Registry) {
	rows, err := experiments.RunTradeoff(experiments.TradeoffOptions{
		Levels:      s.Levels,
		ClusterSize: s.ClusterSize,
		TopNodes:    s.TopNodes,
		Rounds:      s.Rounds,
		Samples:     s.SamplesPerClient,
		Telemetry:   reg,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("Flag-level trade-off (\u00a7III-D2) \u2014 %d rounds at every flag level\n\n", s.Rounds)
	fmt.Print(experiments.TradeoffTable(rows).Render())
	fmt.Println("\nDeeper flag levels raise \u03bd and shorten the virtual wall-clock but pay")
	fmt.Println("model staleness: accuracy at the fixed round budget drops — the paper's")
	fmt.Println("motivation for treating the flag level as a task-dependent tunable.")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "abdhfl-pipeline:", err)
	os.Exit(1)
}
