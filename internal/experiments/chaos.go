package experiments

import (
	"fmt"

	"abdhfl"
	"abdhfl/internal/aggregate"
	"abdhfl/internal/consensus"
	"abdhfl/internal/fault"
	"abdhfl/internal/metrics"
	"abdhfl/internal/pipeline"
	"abdhfl/internal/step"
	"abdhfl/internal/telemetry"
	"abdhfl/internal/trace"
)

// ChaosOptions parameterises the fault-rate x scheme resilience matrix: each
// aggregation scheme is run through the asynchronous pipeline engine under a
// composed fault plan (transport loss, duplication, reordering, crashes,
// churn) whose intensity scales with the fault rate.
type ChaosOptions struct {
	Levels      int     // 0 -> 3
	ClusterSize int     // 0 -> 4
	TopNodes    int     // 0 -> 4
	Rounds      int     // 0 -> 20
	Samples     int     // 0 -> 80
	Seed        uint64  // 0 -> 1
	FlagLevel   int     // flag level for all runs; 0 -> 1
	Quorum      float64 // 0 -> 0.75
	// Malicious is the Type I data-poisoning fraction layered under the
	// faults, so the scheme axis measures Byzantine robustness while the
	// rate axis measures fault tolerance; zero selects 0.25 (use a negative
	// value for a clean population).
	Malicious float64
	// ConvergeAt is the accuracy that defines "converged" for the
	// rounds-to-converge column; zero selects 0.40.
	ConvergeAt float64
	// FaultRates are the plan intensities; nil selects {0, 0.1, 0.2, 0.3}.
	FaultRates []float64
	// Telemetry, if non-nil, accumulates every run's engine metrics.
	Telemetry *telemetry.Registry
	// Trace, if non-nil, records causal spans from every cell's run into one
	// shared tracer (rounds repeat across cells, so the merged stream is only
	// meaningful for capacity/overflow inspection and export — use
	// RunTracePaths for single-run critical-path analysis).
	Trace *trace.Tracer
}

func (o *ChaosOptions) defaults() {
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
		o.Rounds = 20
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
	if o.ConvergeAt == 0 {
		o.ConvergeAt = 0.40
	}
	if o.FaultRates == nil {
		o.FaultRates = []float64{0, 0.1, 0.2, 0.3}
	}
}

// ChaosScheme is one aggregation configuration under test.
type ChaosScheme struct {
	Name    string
	Partial string // BRA registry name for intermediate levels
	Top     string // BRA registry name, or "voting" for the CBA top
}

// ChaosSchemes is the default scheme ladder: an unprotected mean baseline,
// two pure-BRA stacks, and the paper's BRA+CBA combination.
func ChaosSchemes() []ChaosScheme {
	return []ChaosScheme{
		{Name: "mean/mean", Partial: "mean", Top: "mean"},
		{Name: "median/median", Partial: "median", Top: "median"},
		{Name: "mkrum/median", Partial: "multi-krum", Top: "median"},
		{Name: "mkrum/voting", Partial: "multi-krum", Top: "voting"},
	}
}

// pipelineRules resolves a scheme's rule names into the pipeline's two
// rules: a BRA below the top, and a BRA or "voting" at the top.
func pipelineRules(partial, top string) (p, g step.Rule, err error) {
	if p.BRA, err = aggregate.ByName(partial); err != nil {
		return p, g, err
	}
	if top == "voting" {
		return p, step.Rule{CBA: consensus.Voting{}}, nil
	}
	g.BRA, err = aggregate.ByName(top)
	return p, g, err
}

// ChaosPlan composes the fault plan for one intensity: message loss at the
// rate itself, duplication at half, reordering on a quarter of messages,
// an eighth of the devices crashed mid-run and another eighth churned out
// for two rounds. Rate 0 is a genuinely fault-free run (nil plan).
func ChaosPlan(seed uint64, rate float64, devices, rounds int) *fault.Plan {
	if rate <= 0 {
		return nil
	}
	crash := int(rate * float64(devices) / 2)
	churn := crash
	return fault.Merge(
		fault.Lossy(seed, rate, rate/2, 15),
		fault.CrashDevices(seed, devices, crash, rounds/3+1),
		fault.ChurnDevices(seed+1, devices, churn, 1, 3),
	)
}

// ChaosResult is one (fault rate, scheme) cell of the resilience matrix.
type ChaosResult struct {
	FaultRate float64
	Scheme    string
	Accuracy  float64
	// CompletedRounds of the configured budget (degradation, not failure,
	// under heavy fault rates).
	CompletedRounds int
	// RoundsToConverge is the first completed round whose accuracy reached
	// the ConvergeAt threshold, or -1 if the run never got there.
	RoundsToConverge int
	// MeanNu is the pipeline-efficiency indicator of Eq. (3), averaged over
	// measured rounds.
	MeanNu float64
	// SubQuorum and Abandoned count degraded and given-up collections;
	// Dropped/Duplicated are the transport-fault tallies.
	SubQuorum, Abandoned int
	Dropped, Duplicated  int
}

// RunChaos measures every scheme at every fault rate on the same workload.
// Everything is derived from the seed: the same options produce the same
// matrix, bit for bit.
func RunChaos(o ChaosOptions) ([]ChaosResult, error) {
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
	})
	if err != nil {
		return nil, err
	}
	mats.Telemetry = o.Telemetry
	mats.Trace = o.Trace
	if o.Trace != nil && o.Telemetry != nil && o.Trace.DroppedCounter == nil {
		o.Trace.DroppedCounter = o.Telemetry.Counter("abdhfl_trace_dropped_total")
	}

	var out []ChaosResult
	for _, rate := range o.FaultRates {
		plan := ChaosPlan(o.Seed, rate, mats.Tree.NumDevices(), o.Rounds)
		for _, scheme := range ChaosSchemes() {
			cfg := mats.PipelineConfig(o.Seed, o.FlagLevel, pipeline.DefaultTiming())
			cfg.Quorum = o.Quorum
			// A safety-net deadline: well above the natural round period, so
			// sub-quorum closes happen because inputs are LOST, not because the
			// protocol is impatient.
			cfg.CollectTimeout = 1200
			cfg.Faults = plan
			cfg.EvalEvery = 1
			if cfg.Partial, cfg.Global, err = pipelineRules(scheme.Partial, scheme.Top); err != nil {
				return nil, err
			}
			res, err := pipeline.Run(cfg)
			if err != nil {
				return nil, fmt.Errorf("chaos rate=%v scheme=%s: %w", rate, scheme.Name, err)
			}
			converge := -1
			for _, p := range res.Curve {
				if p.Accuracy >= o.ConvergeAt {
					converge = p.Round
					break
				}
			}
			out = append(out, ChaosResult{
				FaultRate:        rate,
				Scheme:           scheme.Name,
				Accuracy:         res.FinalAccuracy,
				CompletedRounds:  res.CompletedRounds,
				RoundsToConverge: converge,
				MeanNu:           res.MeanNu,
				SubQuorum:        res.SubQuorum,
				Abandoned:        res.Abandoned,
				Dropped:          res.Network.Dropped,
				Duplicated:       res.Network.Duplicated,
			})
		}
	}
	return out, nil
}

// ChaosTable renders the resilience matrix.
func ChaosTable(results []ChaosResult) metrics.Table {
	t := metrics.Table{Header: []string{
		"fault rate", "scheme", "accuracy", "rounds done", "converge@", "mean nu", "sub-quorum", "abandoned", "dropped", "dup",
	}}
	for _, r := range results {
		conv := "-"
		if r.RoundsToConverge >= 0 {
			conv = fmt.Sprintf("r%d", r.RoundsToConverge)
		}
		t.AddRow(
			metrics.Pct(r.FaultRate),
			r.Scheme,
			metrics.Pct(r.Accuracy),
			fmt.Sprint(r.CompletedRounds),
			conv,
			fmt.Sprintf("%.3f", r.MeanNu),
			fmt.Sprint(r.SubQuorum),
			fmt.Sprint(r.Abandoned),
			fmt.Sprint(r.Dropped),
			fmt.Sprint(r.Duplicated),
		)
	}
	return t
}
