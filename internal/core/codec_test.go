package core

import (
	"testing"

	"abdhfl/internal/aggregate"
	"abdhfl/internal/codec"
	"abdhfl/internal/telemetry"
)

// The golden-trace contract: a nil codec is the bit-exact Identity codec —
// same curve, same final parameters, same wire bytes — on every core
// engine. Compression then only ever changes results through actual
// information loss, never through plumbing.

func sameResult(t *testing.T, tag string, a, b *Result) {
	t.Helper()
	if len(a.Curve) != len(b.Curve) {
		t.Fatalf("%s: curve lengths differ: %d vs %d", tag, len(a.Curve), len(b.Curve))
	}
	for i := range a.Curve {
		if a.Curve[i] != b.Curve[i] {
			t.Fatalf("%s: curve diverges at %d: %+v vs %+v", tag, i, a.Curve[i], b.Curve[i])
		}
	}
	if len(a.FinalParams) != len(b.FinalParams) {
		t.Fatalf("%s: param lengths differ", tag)
	}
	for i := range a.FinalParams {
		if a.FinalParams[i] != b.FinalParams[i] {
			t.Fatalf("%s: final params diverge at coordinate %d", tag, i)
		}
	}
}

func TestIdentityCodecGoldenHFL(t *testing.T) {
	run := func(c codec.Codec) *Result {
		cfg := buildScenario(t, 3, 2, 2, 4, 60, 2)
		cfg.EvalEvery = 1
		cfg.Codec = c
		res, err := RunHFL(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base, ident := run(nil), run(codec.Identity{})
	sameResult(t, "hfl", base, ident)
	if base.Comm != ident.Comm {
		t.Fatalf("nil codec comm %+v, identity %+v", base.Comm, ident.Comm)
	}
	// Every model transfer ships exactly one encoded vector.
	want := int64(ident.Comm.ModelTransfers) * int64(codec.Identity{}.WireBytes(len(ident.FinalParams)))
	if ident.Comm.WireBytes != want {
		t.Fatalf("wire bytes = %d, want transfers×size = %d", ident.Comm.WireBytes, want)
	}
}

func TestIdentityCodecGoldenVanilla(t *testing.T) {
	base := buildScenario(t, 3, 2, 2, 3, 60, 0)
	run := func(c codec.Codec) *Result {
		res, err := RunVanilla(VanillaConfig{
			Rounds:     3,
			Local:      base.Local,
			Rule:       LevelRule{BRA: aggregate.Median{}},
			ClientData: base.ClientData,
			TestData:   base.TestData,
			Seed:       7,
			EvalEvery:  1,
			Codec:      c,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	sameResult(t, "vanilla", run(nil), run(codec.Identity{}))
}

// TestCodecWorkerCountInvariance: lossy codecs are serial, deterministic
// transforms, so a compressed run stays bit-identical for every worker
// count — the same contract the aggregation kernels honor.
func TestCodecWorkerCountInvariance(t *testing.T) {
	for _, name := range []string{"int8", "topk", "delta"} {
		c, err := codec.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		var results [2]*Result
		for i, workers := range []int{1, 8} {
			cfg := buildScenario(t, 3, 2, 2, 3, 60, 0)
			cfg.EvalEvery = 1
			cfg.Codec = c
			cfg.Workers = workers
			res, err := RunHFL(cfg)
			if err != nil {
				t.Fatal(err)
			}
			results[i] = res
		}
		sameResult(t, name, results[0], results[1])
	}
}

// TestLossyCodecsStillLearn: quantized/sparsified/delta-coded runs must stay
// usable — this is the experiment-level sanity floor, not a robustness claim.
func TestLossyCodecsStillLearn(t *testing.T) {
	for _, name := range []string{"int8", "delta"} {
		c, err := codec.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := buildScenario(t, 3, 2, 2, 20, 120, 0)
		cfg.Codec = c
		res, err := RunHFL(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.FinalAccuracy < 0.6 {
			t.Fatalf("%s: accuracy %v under compression, want > 0.6", name, res.FinalAccuracy)
		}
	}
}

// TestCodecTelemetryCounters: the wire-byte counter and compression-ratio
// gauge land in the registry.
func TestCodecTelemetryCounters(t *testing.T) {
	reg := telemetry.New()
	cfg := buildScenario(t, 3, 2, 2, 2, 60, 0)
	cfg.Codec = codec.Int8Quant{}
	cfg.Telemetry = reg
	res, err := RunHFL(cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	wire := snap.Counters[`abdhfl_codec_wire_bytes_total{engine="hfl"}`]
	ratio := snap.Gauges[`abdhfl_codec_compression_ratio{engine="hfl"}`]
	if wire != res.Comm.WireBytes || wire == 0 {
		t.Fatalf("wire counter = %v, want %d", wire, res.Comm.WireBytes)
	}
	if ratio < 7 || ratio > 8.1 {
		t.Fatalf("int8 compression ratio gauge = %v, want ~7.9", ratio)
	}
}
