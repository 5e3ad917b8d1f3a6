package experiments

import (
	"fmt"

	"abdhfl"
	"abdhfl/internal/codec"
	"abdhfl/internal/metrics"
	"abdhfl/internal/pipeline"
	"abdhfl/internal/simnet"
	"abdhfl/internal/telemetry"
)

// CodecMatrixOptions parameterises the codec x rule x attack sweep: every
// update codec is run through the asynchronous pipeline engine on a
// bandwidth-limited network, crossed with aggregation schemes and data
// attacks, so one table answers "what does compression cost in accuracy and
// filter quality, and what does it buy in bytes and round latency".
type CodecMatrixOptions struct {
	Levels      int    // 0 -> 3
	ClusterSize int    // 0 -> 4
	TopNodes    int    // 0 -> 4
	Rounds      int    // 0 -> 15
	Samples     int    // 0 -> 60
	Seed        uint64 // 0 -> 1
	FlagLevel   int    // flag level for all runs; 0 -> 1
	// Malicious is the poisoned-device fraction for attacked cells; zero
	// selects 0.25.
	Malicious float64
	// RateBytes is the simulated per-link bandwidth in wire bytes per virtual
	// ms; zero selects 1500 (an identity-coded model then costs on the order
	// of a local-training pass per hop, so compression visibly shortens the
	// simulated round).
	RateBytes float64
	// PerMessage is the fixed per-message overhead in virtual ms; zero
	// selects 0.5.
	PerMessage float64
	// Codecs are the registry names under test; nil selects the full registry
	// (identity, int8, topk, delta) plus the delta-topk composition — raw
	// top-k on model weights is deliberately included as the cautionary row
	// next to its residual-coded form.
	Codecs []string
	// Telemetry, if non-nil, accumulates every run's engine metrics.
	Telemetry *telemetry.Registry
}

func (o *CodecMatrixOptions) defaults() {
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
		o.Rounds = 15
	}
	if o.Samples == 0 {
		o.Samples = 60
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.FlagLevel == 0 {
		o.FlagLevel = 1
	}
	if o.Malicious == 0 {
		o.Malicious = 0.25
	}
	if o.RateBytes == 0 {
		o.RateBytes = 1500
	}
	if o.PerMessage == 0 {
		o.PerMessage = 0.5
	}
	if o.Codecs == nil {
		o.Codecs = append(codec.Names(), "delta-topk")
	}
}

// CodecScheme is one aggregation configuration of the codec matrix: the
// unprotected mean baseline and the paper's BRA+CBA stack.
type CodecScheme struct {
	Name    string
	Partial string
	Top     string // BRA name, or "voting"
}

// CodecSchemes returns the default rule axis.
func CodecSchemes() []CodecScheme {
	return []CodecScheme{
		{Name: "mean/mean", Partial: "mean", Top: "mean"},
		{Name: "mkrum/voting", Partial: "multi-krum", Top: "voting"},
	}
}

// CodecMatrixResult is one (codec, scheme, attack) cell.
type CodecMatrixResult struct {
	Codec    string
	Scheme   string
	Attack   string
	Accuracy float64
	// Ratio is the codec's compression ratio (raw float64 bytes over wire
	// bytes) at the run's model dimension.
	Ratio float64
	// WireBytesPerRound is the total encoded traffic divided by completed
	// rounds.
	WireBytesPerRound int64
	// RoundLatency is the mean simulated time per completed round (virtual
	// ms) — the bandwidth model makes this codec-dependent.
	RoundLatency float64
	// Precision/Recall score the bottom-level filter against the known
	// Byzantine placement (1/1 for a clean population).
	Precision, Recall float64
	CompletedRounds   int
}

// RunCodecMatrix measures every codec under every scheme and attack on the
// same bandwidth-limited workload. Everything derives from the seed: the
// same options produce the same matrix, bit for bit.
func RunCodecMatrix(o CodecMatrixOptions) ([]CodecMatrixResult, error) {
	o.defaults()
	var out []CodecMatrixResult
	for _, att := range []abdhfl.Attack{abdhfl.AttackNone, abdhfl.AttackType1} {
		mal := o.Malicious
		if att == abdhfl.AttackNone {
			mal = 0
		}
		mats, err := abdhfl.Build(abdhfl.Scenario{
			Levels:            o.Levels,
			ClusterSize:       o.ClusterSize,
			TopNodes:          o.TopNodes,
			Rounds:            o.Rounds,
			SamplesPerClient:  o.Samples,
			TestSamples:       600,
			ValidationSamples: 400,
			Attack:            att,
			MaliciousFraction: mal,
			Placement:         abdhfl.PlaceRandom,
			Seed:              o.Seed,
			EvalEvery:         1,
		})
		if err != nil {
			return nil, err
		}
		mats.Telemetry = o.Telemetry
		for _, scheme := range CodecSchemes() {
			for _, name := range o.Codecs {
				c, err := codec.ByName(name)
				if err != nil {
					return nil, err
				}
				scorer := NewFilterScorer(mats.Tree, mats.Byzantine)
				mats.OnFilter = scorer.Observe
				cfg := mats.PipelineConfig(o.Seed, o.FlagLevel, pipeline.DefaultTiming())
				cfg.EvalEvery = 1
				cfg.Codec = c
				cfg.Latency = simnet.Bandwidth{
					Base:       simnet.Fixed(1),
					Rate:       o.RateBytes,
					PerMessage: o.PerMessage,
				}
				if cfg.Partial, cfg.Global, err = pipelineRules(scheme.Partial, scheme.Top); err != nil {
					return nil, err
				}
				res, err := pipeline.Run(cfg)
				if err != nil {
					return nil, fmt.Errorf("codec matrix %s/%s/%s: %w", name, scheme.Name, att, err)
				}
				cell := CodecMatrixResult{
					Codec:           name,
					Scheme:          scheme.Name,
					Attack:          string(att),
					Accuracy:        res.FinalAccuracy,
					CompletedRounds: res.CompletedRounds,
					Precision:       1,
					Recall:          1,
				}
				if dim := len(res.FinalParams); dim > 0 {
					cell.Ratio = float64(8*dim) / float64(c.WireBytes(dim))
				}
				if res.CompletedRounds > 0 {
					cell.WireBytesPerRound = res.WireBytes / int64(res.CompletedRounds)
					cell.RoundLatency = float64(res.Duration) / float64(res.CompletedRounds)
				}
				if bottom := mats.Tree.Bottom(); bottom < len(scorer.Levels) {
					ls := scorer.Levels[bottom]
					cell.Precision, cell.Recall = ls.Precision(), ls.Recall()
				}
				out = append(out, cell)
			}
		}
	}
	return out, nil
}

// CodecMatrixTable renders the sweep.
func CodecMatrixTable(results []CodecMatrixResult) metrics.Table {
	t := metrics.Table{Header: []string{
		"attack", "scheme", "codec", "accuracy", "ratio", "wire KB/round", "round vms", "filter prec", "filter recall", "rounds",
	}}
	for _, r := range results {
		t.AddRow(
			r.Attack,
			r.Scheme,
			r.Codec,
			metrics.Pct(r.Accuracy),
			fmt.Sprintf("%.1fx", r.Ratio),
			fmt.Sprintf("%.0f", float64(r.WireBytesPerRound)/1024),
			fmt.Sprintf("%.0f", r.RoundLatency),
			metrics.Pct(r.Precision),
			metrics.Pct(r.Recall),
			fmt.Sprint(r.CompletedRounds),
		)
	}
	return t
}
