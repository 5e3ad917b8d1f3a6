package experiments

import (
	"strings"

	"abdhfl"
	"abdhfl/internal/pipeline"
	"abdhfl/internal/trace"
)

// TraceOptions parameterises the critical-path analysis run: one
// deterministic pipeline-engine execution with the span tracer attached,
// walked into per-round critical paths. Everything derives from the seed, so
// the rendered report — and the exported span streams — are byte-identical
// across reruns, worker counts, and tracer shard counts.
type TraceOptions struct {
	Levels      int     // 0 -> 3
	ClusterSize int     // 0 -> 4
	TopNodes    int     // 0 -> 4
	Rounds      int     // 0 -> 10
	Samples     int     // 0 -> 80
	Seed        uint64  // 0 -> 1
	FlagLevel   int     // 0 -> 1
	Quorum      float64 // 0 -> 0.75
	// Malicious is the Type I poisoning fraction; zero selects 0.25 so the
	// kept/filtered span counts have something to show (negative for clean).
	Malicious float64
	// Workers bounds the engine's parallel hot paths; the traced output is
	// identical for every value.
	Workers int
	// Shards is the tracer's shard count (contention knob, never output);
	// zero selects 8. Cap bounds retained spans; zero selects the tracer
	// default.
	Shards int
	Cap    int
}

func (o *TraceOptions) defaults() {
	if o.Levels == 0 {
		o.Levels = 3
	}
	if o.ClusterSize == 0 {
		o.ClusterSize = 4
	}
	if o.TopNodes == 0 {
		o.TopNodes = 4
	}
	if o.Rounds == 0 {
		o.Rounds = 10
	}
	if o.Samples == 0 {
		o.Samples = 80
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.FlagLevel == 0 {
		o.FlagLevel = 1
	}
	if o.Quorum == 0 {
		o.Quorum = 0.75
	}
	if o.Malicious == 0 {
		o.Malicious = 0.25
	}
	if o.Malicious < 0 {
		o.Malicious = 0
	}
	if o.Shards == 0 {
		o.Shards = 8
	}
}

// TraceReport bundles one traced run's outputs: the tracer (for the JSONL
// and Chrome exporters), the walked critical paths, and the run's summary
// facts.
type TraceReport struct {
	Tracer *trace.Tracer
	Paths  []trace.RoundPath
	// Spans and Dropped are the tracer's retained/overflowed counts.
	Spans, Dropped int
	// CompletedRounds and FinalAccuracy summarise the underlying run.
	CompletedRounds int
	FinalAccuracy   float64
}

// RunTracePaths executes one traced pipeline run and walks its span DAG into
// per-round critical paths.
func RunTracePaths(o TraceOptions) (*TraceReport, error) {
	o.defaults()
	mats, err := abdhfl.Build(abdhfl.Scenario{
		Levels:            o.Levels,
		ClusterSize:       o.ClusterSize,
		TopNodes:          o.TopNodes,
		Rounds:            o.Rounds,
		SamplesPerClient:  o.Samples,
		TestSamples:       600,
		ValidationSamples: 400,
		Attack:            abdhfl.AttackType1,
		MaliciousFraction: o.Malicious,
		Placement:         abdhfl.PlaceRandom,
		Seed:              o.Seed,
		EvalEvery:         1,
		Workers:           o.Workers,
	})
	if err != nil {
		return nil, err
	}
	tr := trace.NewTracer(o.Shards, o.Cap)
	mats.Trace = tr
	cfg := mats.PipelineConfig(o.Seed, o.FlagLevel, pipeline.DefaultTiming())
	cfg.Quorum = o.Quorum
	res, err := pipeline.Run(cfg)
	if err != nil {
		return nil, err
	}
	return &TraceReport{
		Tracer:          tr,
		Paths:           trace.CriticalPaths(tr.Spans()),
		Spans:           tr.Len(),
		Dropped:         tr.Dropped(),
		CompletedRounds: res.CompletedRounds,
		FinalAccuracy:   res.FinalAccuracy,
	}, nil
}

// Render formats the committed results_trace_paths.txt report.
func (r *TraceReport) Render() string {
	var b strings.Builder
	trace.RenderPaths(&b, r.Paths)
	return b.String()
}
