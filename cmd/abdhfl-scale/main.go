// Command abdhfl-scale sweeps the million-device scale engine over a
// depth × fan-out × γ matrix and prints one row per cell: final-round model
// error, bottom-level filter precision/recall, trainer activations and
// materialized update buffers (the cohort vectors one bottom aggregation
// holds, per value-pass worker, whatever the population), event counts, the
// event queue's peak occupancy (at most one event per bottom cluster), and the
// σ_w/σ_g timing aggregates.
//
// Every cell simulates the full device population on the discrete-event
// engine with cohort-batched training, and a 100k-device deployment costs
// under 0.1 s of wall clock per round (≈ 0.08 s on two cores: 0.35 s for
// the default five rounds, 0.75 s for ten). All table cells are pure
// functions of -seed: running the command twice produces byte-identical
// output (results_scale_matrix.txt is the committed reference artifact).
//
//	abdhfl-scale                                   # 100k devices, γ ∈ {0, .1, .2, .3}
//	abdhfl-scale -devices 1000000 -gammas 0,0.2    # a million devices
//	abdhfl-scale -depths 3,4 -fanouts 8,16         # topology shapes
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
		devices = flag.Int("devices", 100_000, "minimum device count per cell (top width is derived)")
		depths  = flag.String("depths", "3", "comma-separated tree depths")
		fanouts = flag.String("fanouts", "8", "comma-separated cluster sizes m")
		gammas  = flag.String("gammas", "0,0.1,0.2,0.3", "comma-separated Byzantine device fractions")
		cohort  = flag.Int("cohort", 4, "trainers sampled per bottom cluster per round")
		rounds  = flag.Int("rounds", 5, "global rounds per cell")
		dim     = flag.Int("dim", 16, "synthetic update dimension")
		rule    = flag.String("rule", "median", "aggregation rule at every level")
		seed    = flag.Uint64("seed", 1, "seed for topology, Byzantine placement, and updates")
		taddr   = flag.String("telemetry-addr", "",
			"serve Prometheus /metrics, expvar, and pprof on this address (e.g. localhost:9090); empty disables")
	)
	flag.Parse()

	depthList, err := parseInts(*depths)
	if err != nil {
		fatal(fmt.Errorf("bad -depths: %w", err))
	}
	fanoutList, err := parseInts(*fanouts)
	if err != nil {
		fatal(fmt.Errorf("bad -fanouts: %w", err))
	}
	gammaList, err := parseFloats(*gammas)
	if err != nil {
		fatal(fmt.Errorf("bad -gammas: %w", err))
	}
	reg := telemetry.MaybeServe(*taddr)

	fmt.Printf("Scale matrix — depth x fan-out x gamma, >=%d devices per cell, cohort %d, %d rounds, rule %s, seed %d\n",
		*devices, *cohort, *rounds, *rule, *seed)
	fmt.Print("lazy device state; deterministic per cell\n\n")

	table := metrics.Table{Header: experiments.ScaleTableHeader()}
	var totalDevices, totalEvents, maxPeakQueue int
	var totalVolume int64
	var totalRate float64
	cells := 0
	for _, d := range depthList {
		for _, m := range fanoutList {
			for _, g := range gammaList {
				res, err := experiments.RunScale(experiments.ScaleOptions{
					Depth:     d,
					Fanout:    m,
					Devices:   *devices,
					Gamma:     g,
					Cohort:    *cohort,
					Rounds:    *rounds,
					Dim:       *dim,
					Rule:      *rule,
					Seed:      *seed,
					Telemetry: reg,
				})
				if err != nil {
					fatal(fmt.Errorf("depth %d m %d gamma %.2f: %w", d, m, g, err))
				}
				table.AddRow(res.Row()...)
				totalDevices += res.Devices
				totalEvents += res.Events
				totalVolume += res.Net.Volume
				if res.Net.PeakQueue > maxPeakQueue {
					maxPeakQueue = res.Net.PeakQueue
				}
				totalRate += res.DevicesPerSec
				cells++
			}
		}
	}
	fmt.Print(table.Render())
	// Deterministic run totals stay on stdout so they land in the artifact;
	// volume is in simnet's abstract payload units (the synthetic update dim).
	fmt.Printf("\nevent engine: peak queue %d pending events (max over cells), %d total payload volume\n",
		maxPeakQueue, totalVolume)
	// The throughput summary goes to stderr: it is wall-clock dependent and
	// must not land in the diffable artifact.
	fmt.Fprintf(os.Stderr, "\n%d cells, %d simulated devices, %d events, mean %.0f devices/sec\n",
		cells, totalDevices, totalEvents, totalRate/float64(cells))
	fmt.Println("\nEach row simulates the full population; only the sampled cohort trains, and")
	fmt.Println("a device stays an id until its round closes: the value pass fills a cluster's")
	fmt.Println("cohort updates into one cohort-vector buffer per worker (compare the buffers")
	fmt.Println("column, one worker's, against devices), and each cluster has one event")
	fmt.Println("pending at a time (peak_queue).")
	fmt.Println("rel_err is the final global model's relative error against the synthetic")
	fmt.Println("ground-truth gradient: robust rules hold it near the gamma=0 noise floor")
	fmt.Println("until the Byzantine fraction approaches the rule's tolerance bound, and the")
	fmt.Println("bottom precision/recall columns show the filter identifying the poisoned")
	fmt.Println("cohort members it actually saw.")
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, tok := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil {
			return nil, fmt.Errorf("entry %q: %w", tok, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, tok := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
		if err != nil {
			return nil, fmt.Errorf("entry %q: %w", tok, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "abdhfl-scale:", err)
	os.Exit(1)
}
