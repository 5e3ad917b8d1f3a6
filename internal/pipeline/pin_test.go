package pipeline

import (
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"abdhfl/internal/aggregate"
	"abdhfl/internal/codec"
	"abdhfl/internal/consensus"
	"abdhfl/internal/fault"
	"abdhfl/internal/nn"
	"abdhfl/internal/step"
	"abdhfl/internal/telemetry"
	"abdhfl/internal/tensor"
	"abdhfl/internal/trace"
)

// The pins below hold what a refactor of the engines must not move: every
// constant was recorded from the tree at commit 7eae79a, before the cluster
// step was shared, and compares a run's whole observable output against it.
// The span-stream goldens next door only compare one build with itself.

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

func TestPipelinePinned(t *testing.T) {
	for _, arm := range []struct {
		name  string
		tweak func(*Config)
		want  pinned
	}{
		{"voting-flag1", func(c *Config) {}, pinned{0xcd6b8b448cb32bd3, 0x3648873abee690e9, 0xd01cd5a65fee0bbf}},
		{"median-flag0-int8", func(c *Config) {
			c.Global = step.Rule{BRA: aggregate.Median{}}
			c.FlagLevel = 0
			c.Codec = mustCodec(t, "int8")
		}, pinned{0xf7de58b9d4eb535d, 0xde83b56598360915, 0x865a2f7b2e373dfd}},
		{"aba-faults-quorum-delta", func(c *Config) {
			c.Global = step.Rule{CBA: consensus.ABA{}}
			c.Partial = step.Rule{BRA: aggregate.CenteredClipping{}}
			c.Quorum = 0.7
			c.CollectTimeout = 300
			c.Faults = &fault.Plan{Seed: 5, Drop: 0.1, Duplicate: 0.1, CrashFromRound: map[int]int{7: 1}}
			c.Codec = mustCodec(t, "delta-int8")
		}, pinned{0x30e7486ae4e89b5c, 0x81590a30d9786ba9, 0x2b00301a073fe3f4}},
	} {
		t.Run(arm.name, func(t *testing.T) {
			got := pinRun(t, func(tr *trace.Tracer, reg *telemetry.Registry, onFilter func(telemetry.FilterDecision)) error {
				cfg := buildConfig(t, 3, 3, 4, 4, 1, 5)
				cfg.EvalEvery = 2
				cfg.Workers = 2
				arm.tweak(&cfg)
				cfg.Trace, cfg.Telemetry, cfg.OnFilter = tr, reg, onFilter
				_, err := Run(cfg)
				return err
			})
			if got != arm.want {
				t.Fatalf("pinned output moved: got %v, want %v", got, arm.want)
			}
		})
	}
}

// resultDigest folds everything a run computes — as opposed to what it
// reports through spans, metrics and OnFilter — into one FNV-1a digest: the
// final model's parameter bits, the accuracy curve, the per-round timing
// series, the network totals and the fault and wire counters.
func resultDigest(res *Result) uint64 {
	h := fnv.New64a()
	for _, x := range res.FinalParams {
		fmt.Fprintf(h, "%x ", math.Float64bits(x))
	}
	fmt.Fprintf(h, "\n%v\n", res.Curve)
	for _, tm := range res.Timings {
		fmt.Fprintf(h, "%d %v %v %v %v\n", tm.Round, tm.SigmaW, tm.SigmaP, tm.SigmaG, tm.Nu)
	}
	fmt.Fprintf(h, "%+v %d %d %d %d %d\n", res.Network, res.MergedGlobals, res.Omitted, res.SubQuorum, res.Abandoned, res.WireBytes)
	return h.Sum64()
}

// resultPins hold the model itself: the constants were recorded from the
// tree at commit 503fada, when every device trained inline on the event loop
// and every partial was a fresh vector.
var resultPins = []struct {
	name  string
	tweak func(*testing.T, *Config)
	want  uint64
}{
	{"voting-flag1", func(*testing.T, *Config) {}, 0x3a3713a1aa08c45},
	{"quorum-timeout-lossy", func(_ *testing.T, c *Config) {
		c.Quorum = 0.7
		c.CollectTimeout = 300
		c.Faults = fault.Lossy(21, 0.1, 0.1, 15)
	}, 0x37f4812f44bbcff1},
	{"crash-churn-omit-leader", func(_ *testing.T, c *Config) {
		c.Quorum = 0.6
		c.CollectTimeout = 300
		n := c.Tree.NumDevices()
		c.Faults = fault.Merge(
			fault.CrashDevices(5, n, 3, 1),
			fault.ChurnDevices(6, n, 4, 1, 3),
			&fault.Plan{
				CrashFromRound: map[int]int{33: 2, 34: 2, 35: 2}, // a whole cluster: its leader abandons
				OmitProb:       map[int]float64{2: 0.5, 11: 0.5, 20: 1},
				LeaderFailures: []fault.LeaderFailure{{Level: 2, Cluster: 5, FromRound: 2}},
			},
		)
	}, 0xd83be0781631e1e6},
	{"delta-int8-flag0", func(t *testing.T, c *Config) {
		c.FlagLevel = 0
		c.Codec = mustCodec(t, "delta-int8")
	}, 0x7832e46ddd42c4b9},
}

// checkResultPin runs resultPins[arm] on workers training goroutines and
// compares its digest with the pin.
func checkResultPin(t *testing.T, arm, workers int) {
	t.Helper()
	cfg := buildConfig(t, 3, 3, 4, 4, 1, 5)
	cfg.EvalEvery = 2
	cfg.Workers = workers
	resultPins[arm].tweak(t, &cfg)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := resultDigest(res), resultPins[arm].want; got != want {
		t.Fatalf("pinned result moved: got %#x, want %#x", got, want)
	}
}

// TestPipelineResultPinned: the pins hold for every worker count.
func TestPipelineResultPinned(t *testing.T) {
	for arm, pin := range resultPins {
		for _, workers := range []int{1, 2, 3, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", pin.name, workers), func(t *testing.T) { checkResultPin(t, arm, workers) })
		}
	}
}

// TestFreedVectorsAreNeverReadAgain: under the store's quarantine, which
// NaN-fills every vector the engine gives back and never lends it again,
// each pinned run still produces its pinned bits, and nothing given back is
// written again. So no upload, partial or failed step's destination is read
// or written once it is freed, and no flag or global is freed.
func TestFreedVectorsAreNeverReadAgain(t *testing.T) {
	end := step.Store.Quarantine()
	t.Cleanup(func() {
		if !end() {
			t.Error("a vector was written, or given back again, after it went back to the store")
		}
	})
	for arm, pin := range resultPins {
		t.Run(pin.name, func(t *testing.T) { checkResultPin(t, arm, 3) })
	}
}

// TestStoreCannotLeakIntoResults: started on a process store of NaN
// vectors of the model's dim, each pinned run still produces its pinned
// bits, so every training and step overwrites the whole vector it borrows;
// and a Result's FinalParams is the caller's, left bit for bit as it was by
// the runs after it.
func TestStoreCannotLeakIntoResults(t *testing.T) {
	var first *Result
	var kept tensor.Vector
	for arm, pin := range resultPins {
		t.Run(pin.name, func(t *testing.T) {
			cfg := buildConfig(t, 3, 3, 4, 4, 1, 5)
			dim := nn.NewShaped(step.ModelSizes(cfg.Hidden)...).NumParams()
			vs := make([]tensor.Vector, 256)
			for i := range vs {
				vs[i] = tensor.Fill(step.Store.Take(dim), math.NaN())
			}
			step.Store.Put(vs...)
			checkResultPin(t, arm, 3)
			if first == nil {
				var err error
				if first, err = Run(cfg); err != nil {
					t.Fatal(err)
				}
				kept = slices.Clone(first.FinalParams)
			}
		})
	}
	if first != nil && !slices.EqualFunc(kept, first.FinalParams, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
		t.Error("a later run wrote an earlier run's FinalParams")
	}
}

// TestHeldVectorsGoBackAtRunEnd: what a run reads until it ends — the
// initial model, every flag-level partial and every global — goes back to
// the store once the training workers are joined, all but FinalParams,
// which is the caller's. Each arm runs under the store's quarantine: what
// goes back keeps its poison and nothing goes back twice (at ℓF = 0 the
// flag is the global, held once), and a later run leaves the arm's
// FinalParams bit for bit as it was. Two faulted arms drain early, one with
// an earlier global as FinalParams and one with none. The last arm unwinds
// mid-run with trainings queued: a give-back before the workers are joined
// poisons start models they are still reading, which `go test -race`
// reports.
func TestHeldVectorsGoBackAtRunEnd(t *testing.T) {
	type abort struct{}
	for _, arm := range []struct {
		name      string
		tweak     func(*Config)
		completed int // rounds the run forms; -1 when it unwinds
	}{
		{"flag1", func(*Config) {}, 4},
		{"flag0", func(c *Config) { c.FlagLevel = 0 }, 4},
		{"drained-early", func(c *Config) {
			c.Faults = &fault.Plan{Seed: 5, CrashFromRound: map[int]int{0: 2}}
		}, 2},
		{"drained-before-a-global", func(c *Config) {
			c.Faults = &fault.Plan{Seed: 5, CrashFromRound: map[int]int{0: 0}}
		}, 0},
		{"unwound", func(c *Config) {
			// One worker, long trainings and a cheap top step: when the
			// top forms round 0's global, the round-1 trainings the flags
			// released are still queued.
			c.Workers = 1
			c.Local.Iterations = 40
			c.Global = step.Rule{BRA: aggregate.Median{}}
			c.OnFilter = func(d telemetry.FilterDecision) {
				if d.Level == 0 {
					panic(abort{})
				}
			}
		}, -1},
	} {
		t.Run(arm.name, func(t *testing.T) {
			cfg := buildConfig(t, 3, 3, 4, 4, 1, 5)
			cfg.EvalEvery = 2
			cfg.Workers = 2
			arm.tweak(&cfg)
			end := step.Store.Quarantine()
			res, err := func() (res *Result, err error) {
				defer func() {
					if r := recover(); r != nil {
						if _, ok := r.(abort); !ok {
							panic(r)
						}
					}
				}()
				return Run(cfg)
			}()
			if !end() {
				t.Error("a vector was written, or given back again, after it went back to the store")
			}
			if arm.completed < 0 {
				if res != nil || err != nil {
					t.Fatalf("the run did not unwind: %v, %v", res, err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if res.CompletedRounds != arm.completed || (res.FinalParams == nil) != (arm.completed == 0) {
				t.Fatalf("completed %d rounds with FinalParams set %v, want %d rounds", res.CompletedRounds, res.FinalParams != nil, arm.completed)
			}
			kept := slices.Clone(res.FinalParams)
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
			if !slices.EqualFunc(kept, res.FinalParams, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
				t.Error("a later run wrote this run's FinalParams")
			}
		})
	}
}
