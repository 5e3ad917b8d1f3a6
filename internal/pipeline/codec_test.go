package pipeline

import (
	"testing"

	"abdhfl/internal/codec"
	"abdhfl/internal/simnet"
	"abdhfl/internal/telemetry"
)

// samePipelineResult checks everything a codec hop could perturb: the
// accuracy curve, timings, final parameters, and the event schedule
// (Duration). Network volume is excluded — a codec's wire size is its own.
func samePipelineResult(t *testing.T, tag string, a, b *Result) {
	t.Helper()
	if a.Duration != b.Duration {
		t.Fatalf("%s: durations differ: %v vs %v", tag, a.Duration, b.Duration)
	}
	if len(a.Curve) != len(b.Curve) {
		t.Fatalf("%s: curve lengths differ", tag)
	}
	for i := range a.Curve {
		if a.Curve[i] != b.Curve[i] {
			t.Fatalf("%s: curve diverges at %d: %+v vs %+v", tag, i, a.Curve[i], b.Curve[i])
		}
	}
	if len(a.Timings) != len(b.Timings) {
		t.Fatalf("%s: timing lengths differ", tag)
	}
	for i := range a.Timings {
		if a.Timings[i] != b.Timings[i] {
			t.Fatalf("%s: timings diverge at %d", tag, i)
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

// TestIdentityCodecGoldenPipeline: a nil codec is the bit-exact Identity
// codec — model stream, schedule, timings and wire bytes — with both
// flag-level settings.
func TestIdentityCodecGoldenPipeline(t *testing.T) {
	for _, flagLevel := range []int{0, 1} {
		run := func(c codec.Codec) *Result {
			cfg := buildConfig(t, 3, 2, 2, 5, flagLevel, 1)
			cfg.EvalEvery = 1
			cfg.Codec = c
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		base, ident := run(nil), run(codec.Identity{})
		samePipelineResult(t, "pipeline", base, ident)
		if base.WireBytes != ident.WireBytes || base.Network != ident.Network {
			t.Fatalf("nil codec ships %d wire bytes (%+v), identity %d (%+v)", base.WireBytes, base.Network, ident.WireBytes, ident.Network)
		}
	}
}

// TestPipelineCodecDeterministic: lossy codecs stay bit-reproducible — the
// whole point of the deterministic transcode hop.
func TestPipelineCodecDeterministic(t *testing.T) {
	for _, name := range []string{"int8", "delta"} {
		c, err := codec.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		run := func() *Result {
			cfg := buildConfig(t, 3, 2, 2, 4, 1, 0)
			cfg.EvalEvery = 1
			cfg.Codec = c
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		a, b := run(), run()
		samePipelineResult(t, name, a, b)
		if a.WireBytes != b.WireBytes {
			t.Fatalf("%s: wire bytes differ across reruns", name)
		}
	}
}

// TestPipelineCodecWithBandwidth: the simnet.Bandwidth wrapper charges wire
// bytes, so a compressed run must finish no later than an identity run under
// the same byte rate, and the run must stay deterministic.
func TestPipelineCodecWithBandwidth(t *testing.T) {
	run := func(c codec.Codec) *Result {
		cfg := buildConfig(t, 3, 2, 2, 4, 1, 0)
		cfg.EvalEvery = 1
		cfg.Codec = c
		cfg.Latency = simnet.Bandwidth{Base: simnet.Fixed(1), Rate: 50_000, PerMessage: 0.5}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ident, int8run := run(codec.Identity{}), run(codec.Int8Quant{})
	if int8run.Duration >= ident.Duration {
		t.Fatalf("int8 run (%v) not faster than identity (%v) under a byte-rate cap",
			int8run.Duration, ident.Duration)
	}
	if int8run.WireBytes >= ident.WireBytes {
		t.Fatalf("int8 wire bytes %d not below identity %d", int8run.WireBytes, ident.WireBytes)
	}
}

// TestPipelineCodecTelemetry: per-hop wire-byte counters cover the full
// total, and the ratio gauge reflects the configured codec.
func TestPipelineCodecTelemetry(t *testing.T) {
	reg := telemetry.New()
	cfg := buildConfig(t, 3, 2, 2, 3, 1, 0)
	cfg.Codec = codec.Int8Quant{}
	cfg.Telemetry = reg
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	var sum int64
	for _, hop := range hopNames {
		n := snap.Counters[`abdhfl_codec_wire_bytes_total{engine="pipeline",hop="`+hop+`"}`]
		if n == 0 {
			t.Fatalf("hop %q recorded zero bytes", hop)
		}
		sum += n
	}
	if sum != res.WireBytes {
		t.Fatalf("per-hop sum %d != total %d", sum, res.WireBytes)
	}
	if r := snap.Gauges[`abdhfl_codec_compression_ratio{engine="pipeline"}`]; r < 7 || r > 8.1 {
		t.Fatalf("compression ratio gauge = %v, want ~7.9", r)
	}
}
