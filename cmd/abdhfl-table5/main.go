// Command abdhfl-table5 regenerates the paper's Table V: final global-model
// test accuracy of ABD-HFL vs vanilla FL under Type I / Type II data
// poisoning, for IID and non-IID client data, across malicious proportions
// 0% .. 65% (including the 57.8% theoretical bound of §V-A).
//
// The full sweep is 4 scenario families x 9 proportions x 2 systems x
// -repeats runs. With the defaults it finishes in minutes on a laptop; use
// -quick for a smoke-scale pass or raise -rounds/-repeats to approach the
// paper's 200x5 setting.
//
// With -audit the command instead scores every aggregation's kept/discarded
// contributor ids against the ground-truth attacker placement and reports
// per-level filter precision/recall for the same attack families.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"abdhfl/internal/experiments"
	"abdhfl/internal/metrics"
	"abdhfl/internal/telemetry"
)

func main() {
	var (
		rounds   = flag.Int("rounds", 60, "global training rounds per run (paper: 200)")
		repeats  = flag.Int("repeats", 3, "repeated runs per cell (paper: 5)")
		samples  = flag.Int("samples", 200, "training samples per client (paper: 937 MNIST samples)")
		quick    = flag.Bool("quick", false, "smoke-scale pass (few rounds, 1 repeat)")
		csvPath  = flag.String("csv", "", "also write the table as CSV to this path")
		audit    = flag.Bool("audit", false, "report per-level filter precision/recall instead of accuracy")
		auditMal = flag.Float64("audit-malicious", 0.30, "malicious proportion for -audit runs")
		taddr    = flag.String("telemetry-addr", "",
			"serve Prometheus /metrics, expvar, and pprof on this address (e.g. localhost:9090); empty disables")
		fracsArg = flag.String("fractions", "0,0.05,0.10,0.20,0.30,0.40,0.50,0.578,0.65",
			"comma-separated malicious proportions")
	)
	flag.Parse()
	if *quick {
		*rounds, *repeats, *samples = 15, 1, 80
	}
	reg := telemetry.MaybeServe(*taddr)
	if *audit {
		runAudit(*rounds, *samples, *auditMal, *csvPath, reg)
		return
	}
	fractions, err := parseFractions(*fracsArg)
	if err != nil {
		fatal(err)
	}

	opts := experiments.Table5Options{
		Telemetry: reg,
		Rounds:    *rounds,
		Repeats:   *repeats,
		Samples:   *samples,
		Fractions: fractions,
		Progress: func(format string, args ...any) {
			fmt.Printf("  "+format+"\n", args...)
		},
	}
	fmt.Printf("Table V — final test accuracy (rounds=%d repeats=%d samples/client=%d)\n",
		*rounds, *repeats, *samples)
	res, err := experiments.RunTable5(opts)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("Theorem 2 bound for the 3-level γ1=γ2=25%% tree: %s\n\n", metrics.Pct(res.Bound))
	table := res.Table()
	fmt.Print(table.Render())
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := table.WriteCSV(f); err != nil {
			fatal(err)
		}
		fmt.Printf("\nCSV written to %s\n", *csvPath)
	}
}

func runAudit(rounds, samples int, frac float64, csvPath string, reg *telemetry.Registry) {
	fmt.Printf("Filter audit — per-level precision/recall vs ground truth (rounds=%d samples/client=%d malicious=%s)\n",
		rounds, samples, metrics.Pct(frac))
	res, err := experiments.RunFilterAudit(experiments.FilterAuditOptions{
		Rounds:    rounds,
		Samples:   samples,
		Frac:      frac,
		Telemetry: reg,
		Progress: func(format string, args ...any) {
			fmt.Printf("  "+format+"\n", args...)
		},
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("Theorem 2 bound for the 3-level γ1=γ2=25%% tree: %s\n\n", metrics.Pct(res.Bound))
	table := res.Table()
	fmt.Print(table.Render())
	fmt.Println("\nPrecision = flagged updates that were really malicious; recall = malicious")
	fmt.Println("updates the filter acted against. Level 0 is the top (CBA) level; clipped")
	fmt.Println("contributors count as flagged.")
	if csvPath != "" {
		f, err := os.Create(csvPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := table.WriteCSV(f); err != nil {
			fatal(err)
		}
		fmt.Printf("\nCSV written to %s\n", csvPath)
	}
}

func parseFractions(arg string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(arg, ",") {
		f, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad fraction %q: %w", part, err)
		}
		if !(f >= 0 && f <= 1) { // a NaN fails every comparison
			return nil, fmt.Errorf("fraction %v out of [0,1]", f)
		}
		out = append(out, f)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "abdhfl-table5:", err)
	os.Exit(1)
}
