package core

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"testing"

	"abdhfl/internal/aggregate"
	"abdhfl/internal/attack"
	"abdhfl/internal/codec"
	"abdhfl/internal/consensus"
	"abdhfl/internal/telemetry"
	"abdhfl/internal/trace"
)

// The pins below hold what a refactor of the engines must not move: every
// constant was recorded from the tree at commit 7eae79a, before the cluster
// step was shared, and compares a run's whole observable output against it.
// The arms without a codec, and the filter logs of a CBA a flat engine
// runs, were regenerated once when a nil codec became codec.Identity: their
// byte counts, volumes and compression ratio took the identity's wire size
// and their CBA verdicts the "cba:" tag, with every value, curve and
// verdict unchanged. The vanilla "voting-cohort-int8" arm was re-pinned
// once when the star's cohort became RunHFL's per-cluster draw: its tweak
// went from 6 of the 8 devices to 1 of each 2-device cluster. The
// span-stream goldens next door only compare one build with itself.

// pinned is one run's observable output folded into three FNV-1a digests.
type pinned struct{ spans, metrics, filters uint64 }

func (p pinned) String() string {
	return fmt.Sprintf("{%#x, %#x, %#x}", p.spans, p.metrics, p.filters)
}

func digest(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// spanDigest folds the tracer's exported JSONL stream.
func spanDigest(t *testing.T, tr *trace.Tracer) uint64 {
	t.Helper()
	var b strings.Builder
	if err := tr.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if tr.Len() == 0 || tr.Dropped() != 0 {
		t.Fatalf("tracer retained %d spans, dropped %d", tr.Len(), tr.Dropped())
	}
	return digest(b.String())
}

// metricsDigest folds the sorted series names (labels included) of the
// Prometheus exposition, with the sample value of every family that is not a
// wall-clock duration (*_seconds). abdhfl_step_errors_total is the one
// family added after the pins were taken and is left out.
func metricsDigest(t *testing.T, reg *telemetry.Registry) uint64 {
	t.Helper()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, ln := range strings.Split(b.String(), "\n") {
		if ln == "" || ln[0] == '#' || strings.HasPrefix(ln, "abdhfl_step_errors_total") {
			continue
		}
		sp := strings.LastIndexByte(ln, ' ')
		if strings.Contains(ln[:sp], "_seconds") {
			ln = ln[:sp]
		}
		lines = append(lines, ln)
	}
	sort.Strings(lines)
	return digest(strings.Join(lines, "\n"))
}

// filterLog collects the OnFilter sequence as text, one decision per line.
type filterLog struct{ b strings.Builder }

func (l *filterLog) record(d telemetry.FilterDecision) {
	fmt.Fprintf(&l.b, "%s %d %d %d %s %v %v %v\n", d.Engine, d.Level, d.Cluster, d.Round, d.Rule, d.Kept, d.Clipped, d.Discarded)
}

// pinRun runs an engine twice — once with only a tracer, so spans take their
// kept/filtered counts from an audit nobody else asked for, once with a
// registry and an OnFilter consumer — and digests both.
func pinRun(t *testing.T, run func(tr *trace.Tracer, reg *telemetry.Registry, onFilter func(telemetry.FilterDecision)) error) pinned {
	t.Helper()
	tr := trace.NewTracer(4, 0)
	if err := run(tr, nil, nil); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	var log filterLog
	if err := run(nil, reg, log.record); err != nil {
		t.Fatal(err)
	}
	return pinned{spanDigest(t, tr), metricsDigest(t, reg), digest(log.b.String())}
}

func mustCodec(t *testing.T, name string) codec.Codec {
	t.Helper()
	if name == "" {
		return nil
	}
	c, err := codec.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// hflPins and vanillaPins are the round engines' pinned arms; every arm runs
// the same scenario with its tweak applied.
var hflPins = []struct {
	name  string
	tweak func(*testing.T, *Config)
	want  pinned
}{
	{"bra-voting", func(*testing.T, *Config) {}, pinned{0xd739fe25a0d81ef, 0x8bc78015053325a0, 0xc12bc58397eec2d1}},
	{"bra-bra-int8", func(t *testing.T, c *Config) {
		c.Global = LevelRule{BRA: aggregate.Median{}}
		c.Codec = mustCodec(t, "int8")
	}, pinned{0x6b806140b2201267, 0x121a8c94984a91f7, 0x79a287d34b2f8ad6}},
	{"cba-aba-signflip", func(_ *testing.T, c *Config) {
		c.Partial = LevelRule{CBA: consensus.Voting{}}
		c.Global = LevelRule{CBA: consensus.ABA{}}
		c.ModelAttack = attack.SignFlip{}
	}, pinned{0xd2adb16beaf6093e, 0xdb99f568acfb38e7, 0xe903eb1e6197afc4}},
	{"clip-quorum-churn-delta", func(t *testing.T, c *Config) {
		c.PartialByLevel = map[int]LevelRule{2: {BRA: aggregate.CenteredClipping{}}}
		c.Quorum = 0.7
		c.Churn.OfflineProb = 0.2
		c.RotateLeaders = true
		c.Codec = mustCodec(t, "delta-int8")
	}, pinned{0xebbe7e943a411bf3, 0xa161ff255b55935c, 0xf98a93be515dffd2}},
}

var vanillaPins = []struct {
	name  string
	tweak func(*testing.T, *Config)
	want  pinned
}{
	{"mkrum", func(*testing.T, *Config) {}, pinned{0x526fad0db9e7e7c1, 0x5722015547ac871, 0xb774339e4baf2fe8}},
	{"voting-cohort-int8", func(t *testing.T, c *Config) {
		c.Partial = LevelRule{CBA: consensus.Voting{}}
		c.Cohort = 1
		c.Codec = mustCodec(t, "int8")
	}, pinned{0xaf7e23d78e509209, 0xaa6325c9ed923c93, 0xde57139ec7d2aff7}},
}

// checkHFLPin runs hflPins[arm] through pinRun and compares its digests
// with the pin; poison fills the process store with NaN vectors before
// each of the two runs (poisonStore).
func checkHFLPin(t *testing.T, arm int, poison bool) {
	t.Helper()
	got := pinRun(t, func(tr *trace.Tracer, reg *telemetry.Registry, onFilter func(telemetry.FilterDecision)) error {
		cfg := buildScenario(t, 3, 3, 4, 3, 40, 5)
		cfg.EvalEvery = 2
		cfg.Workers = 2
		hflPins[arm].tweak(t, &cfg)
		cfg.Trace, cfg.Telemetry, cfg.OnFilter = tr, reg, onFilter
		if poison {
			poisonStore(cfg.Hidden)
		}
		_, err := RunHFL(cfg)
		return err
	})
	if got != hflPins[arm].want {
		t.Fatalf("pinned output moved: got %v, want %v", got, hflPins[arm].want)
	}
}

// checkVanillaPin is checkHFLPin for vanillaPins[arm].
func checkVanillaPin(t *testing.T, arm int, poison bool) {
	t.Helper()
	got := pinRun(t, func(tr *trace.Tracer, reg *telemetry.Registry, onFilter func(telemetry.FilterDecision)) error {
		cfg := buildScenario(t, 3, 2, 2, 3, 40, 2) // the server's rule, Partial, is Multi-Krum
		cfg.EvalEvery = 2
		cfg.Workers = 2
		vanillaPins[arm].tweak(t, &cfg)
		cfg.Trace, cfg.Telemetry, cfg.OnFilter = tr, reg, onFilter
		if poison {
			poisonStore(cfg.Hidden)
		}
		_, err := RunVanilla(cfg)
		return err
	})
	if got != vanillaPins[arm].want {
		t.Fatalf("pinned output moved: got %v, want %v", got, vanillaPins[arm].want)
	}
}

func TestHFLPinned(t *testing.T) {
	for arm, pin := range hflPins {
		t.Run(pin.name, func(t *testing.T) { checkHFLPin(t, arm, false) })
	}
}

func TestVanillaPinned(t *testing.T) {
	for arm, pin := range vanillaPins {
		t.Run(pin.name, func(t *testing.T) { checkVanillaPin(t, arm, false) })
	}
}
