// Command abdhfl-sim runs a single ABD-HFL experiment described entirely by
// flags — the general-purpose front end to the library. It prints the
// convergence curve, the final accuracy next to the vanilla baseline, the
// communication counters, and (with -engine pipeline) the asynchronous
// workflow's efficiency statistics. The server-less deployment, one process
// per node over a real wire, is cmd/abdhfl-node.
package main

import (
	"cmp"
	"flag"
	"fmt"
	"os"

	"abdhfl"
	"abdhfl/internal/aggregate"
	"abdhfl/internal/consensus"
	"abdhfl/internal/metrics"
	"abdhfl/internal/pipeline"
	"abdhfl/internal/telemetry"
	"abdhfl/internal/trace"
)

func main() {
	var (
		levels    = flag.Int("levels", 3, "tree depth (levels)")
		m         = flag.Int("m", 4, "cluster size")
		top       = flag.Int("top", 4, "top-level node count")
		dist      = flag.String("dist", "iid", "data distribution: iid | noniid | dirichlet")
		atk       = flag.String("attack", "none", "attack: none | type1 | type2 | backdoor | signflip | noise | ale | ipm")
		mal       = flag.Float64("malicious", 0, "malicious proportion [0,1]")
		placement = flag.String("placement", "prefix", "placement: prefix | random | adversarial")
		rounds    = flag.Int("rounds", 40, "global rounds")
		samples   = flag.Int("samples", 150, "samples per client")
		agg       = flag.String("aggregator", "multi-krum", "intermediate BRA rule")
		proto     = flag.String("protocol", "voting", "consensus protocol of the CBA levels ('' = voting; a BRA top comes from -scheme 2 or 3)")
		scheme    = flag.Int("scheme", 0, "Table III scheme override (1-4, 0 = explicit rules)")
		quorum    = flag.Float64("quorum", 1, "collection quorum φ")
		codecName = flag.String("codec", "", "update codec: identity | int8 | topk | delta | delta-<inner> ('' = uncompressed)")
		cohort    = flag.Int("cohort", 0, "devices sampled to train per bottom cluster per round (0 = everyone)")
		seed      = flag.Uint64("seed", 1, "experiment seed")
		engine    = flag.String("engine", "rounds", "engine: rounds | pipeline")
		flagLvl   = flag.Int("flaglevel", 1, "flag level for the pipeline engine")
		baseline  = flag.Bool("baseline", true, "also run the vanilla FL baseline (rounds engine only)")
		listRules = flag.Bool("list", false, "list available aggregators and protocols, then exit")
		config    = flag.String("config", "", "load the scenario from a JSON file (flags are ignored except -engine/-flaglevel/-baseline)")
		showTree  = flag.Bool("tree", false, "print the tree structure (with Byzantine devices marked) before running")
		taddr     = flag.String("telemetry-addr", "",
			"serve Prometheus /metrics, expvar, and pprof on this address (e.g. localhost:9090); empty disables")
		traceJSONL  = flag.String("trace-jsonl", "", "record causal spans and write the merged stream as JSON Lines to this file")
		traceChrome = flag.String("trace-chrome", "", "record causal spans and write Chrome trace-event JSON (Perfetto-loadable) to this file")
		traceShards = flag.Int("trace-shards", 8, "tracer shard count (contention knob; never changes output)")
		traceCap    = flag.Int("trace-cap", 0, "retained span bound (0 = default)")
	)
	flag.Parse()
	if *listRules {
		fmt.Println("aggregators:", aggregate.Names())
		fmt.Println("protocols:  ", consensus.Names())
		return
	}

	s := abdhfl.Scenario{
		Levels: *levels, ClusterSize: *m, TopNodes: *top,
		Distribution:      abdhfl.Distribution(*dist),
		Attack:            abdhfl.Attack(*atk),
		MaliciousFraction: *mal,
		Placement:         abdhfl.Placement(*placement),
		Rounds:            *rounds,
		SamplesPerClient:  *samples,
		Aggregator:        *agg,
		TopProtocol:       *proto,
		Scheme:            *scheme,
		Quorum:            *quorum,
		Codec:             *codecName,
		Cohort:            *cohort,
		Seed:              *seed,
		EvalEvery:         5,
	}.WithDefaults()
	if *config != "" {
		loaded, err := abdhfl.LoadScenario(*config)
		if err != nil {
			fatal(err)
		}
		s = loaded.WithDefaults()
	}

	mat, err := abdhfl.Build(s)
	if err != nil {
		fatal(err)
	}
	mat.Telemetry = telemetry.MaybeServe(*taddr)
	var tracer *trace.Tracer
	if *traceJSONL != "" || *traceChrome != "" {
		tracer = trace.NewTracer(*traceShards, *traceCap)
		if mat.Telemetry != nil {
			tracer.DroppedCounter = mat.Telemetry.Counter("abdhfl_trace_dropped_total")
		}
		mat.Trace = tracer
	}
	if *showTree {
		fmt.Print(mat.Tree.Summary())
		fmt.Println()
		fmt.Print(mat.Tree.Render(mat.Byzantine))
		fmt.Println()
	}
	fmt.Printf("ABD-HFL simulation: %d clients (%d levels, m=%d, top=%d), %s, attack=%s at %s\n",
		s.Clients(), s.Levels, s.ClusterSize, s.TopNodes, s.Distribution, s.Attack, metrics.Pct(s.MaliciousFraction))
	fmt.Printf("rules: partial=%s global=%s engine=%s\n\n", mat.PartialRule.Name(), mat.GlobalRule.Name(), *engine)

	switch *engine {
	case "rounds":
		runRounds(mat, s, *baseline)
	case "pipeline":
		runPipeline(mat, *flagLvl)
	default:
		fatal(fmt.Errorf("unknown engine %q", *engine))
	}
	exportTrace(tracer, *traceJSONL, *traceChrome)
}

// exportTrace writes the recorded span stream to the requested files and
// surfaces capacity overflow on the summary.
func exportTrace(tracer *trace.Tracer, jsonl, chrome string) {
	if tracer == nil {
		return
	}
	if w := trace.DroppedWarning("span tracer", tracer.Dropped()); w != "" {
		fmt.Println(w)
	}
	if jsonl != "" {
		f, err := os.Create(jsonl)
		if err != nil {
			fatal(err)
		}
		if err := tracer.WriteJSONL(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("trace: %d spans written to %s\n", tracer.Len(), jsonl)
	}
	if chrome != "" {
		f, err := os.Create(chrome)
		if err != nil {
			fatal(err)
		}
		if err := tracer.WriteChromeTrace(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("trace: Chrome trace written to %s (load in ui.perfetto.dev)\n", chrome)
	}
}

func runRounds(mat *abdhfl.Materials, s abdhfl.Scenario, baseline bool) {
	res, err := mat.RunHFL(s.Seed)
	if err != nil {
		fatal(err)
	}
	fmt.Println("round  accuracy  loss")
	for _, p := range res.Curve {
		fmt.Printf("%5d  %-8s  %.4f\n", p.Round, metrics.Pct(p.Accuracy), p.Loss)
	}
	fmt.Printf("\nfinal accuracy: %s\n", metrics.Pct(res.FinalAccuracy))
	fmt.Printf("communication: %d model transfers, %d scalar messages\n",
		res.Comm.ModelTransfers, res.Comm.ScalarMessages)
	fmt.Printf("wire traffic: %d encoded bytes (codec %s)\n", res.Comm.WireBytes, cmp.Or(s.Codec, "identity"))
	if res.ExcludedByConsensus > 0 {
		fmt.Printf("top-level consensus excluded %d partial models\n", res.ExcludedByConsensus)
	}
	if baseline {
		van, err := mat.RunVanilla(s.Seed)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("vanilla FL baseline: %s (%d model transfers)\n",
			metrics.Pct(van.FinalAccuracy), van.Comm.ModelTransfers)
	}
}

func runPipeline(mat *abdhfl.Materials, flagLevel int) {
	res, err := mat.RunPipeline(mat.Scenario.Seed, flagLevel, pipeline.DefaultTiming())
	if err != nil {
		fatal(err)
	}
	fmt.Printf("pipeline engine, flag level %d\n", flagLevel)
	fmt.Printf("final accuracy  %s\n", metrics.Pct(res.FinalAccuracy))
	fmt.Printf("mean nu         %.3f\n", res.MeanNu)
	fmt.Printf("virtual time    %.0f ms\n", float64(res.Duration))
	fmt.Printf("merges          %d\n", res.MergedGlobals)
	fmt.Printf("network         %d msgs / %d bytes / %d dropped / %d dup / %d unregistered\n",
		res.Network.Messages, res.Network.Volume,
		res.Network.Dropped, res.Network.Duplicated, res.Network.DroppedUnregistered)
	fmt.Printf("peak queue      %d pending events\n", res.Network.PeakQueue)
	fmt.Printf("wire traffic    %d encoded bytes (codec %s)\n", res.WireBytes, cmp.Or(mat.Scenario.Codec, "identity"))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "abdhfl-sim:", err)
	os.Exit(1)
}
