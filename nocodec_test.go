package abdhfl_test

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"abdhfl"
	"abdhfl/internal/codec"
	"abdhfl/internal/node"
	"abdhfl/internal/pipeline"
	"abdhfl/internal/telemetry"
	"abdhfl/internal/trace"
)

// TestNoCodecIsIdentity holds that a run without a codec is a run with
// codec.Identity in every engine: the same result (wire bytes included),
// spans, metrics and filter log, not merely the same model. Node reports
// no spans; its wire totals stand in for them.
func TestNoCodecIsIdentity(t *testing.T) {
	s := abdhfl.Scenario{
		Levels: 3, ClusterSize: 2, TopNodes: 2,
		Attack: abdhfl.AttackType1, MaliciousFraction: 0.3,
		Rounds: 3, LocalIters: 2, BatchSize: 8, LearningRate: 0.05,
		SamplesPerClient: 24, TestSamples: 80, ValidationSamples: 40,
		EvalEvery: 1, Seed: 7, Workers: 2,
	}.WithDefaults()
	for _, engine := range []struct {
		name string
		run  func(m *abdhfl.Materials) (string, error)
	}{
		{"hfl", func(m *abdhfl.Materials) (string, error) {
			res, err := m.RunHFL(s.Seed)
			return fmt.Sprintf("%+v", res), err
		}},
		{"vanilla", func(m *abdhfl.Materials) (string, error) {
			res, err := m.RunVanilla(s.Seed)
			return fmt.Sprintf("%+v", res), err
		}},
		{"pipeline", func(m *abdhfl.Materials) (string, error) {
			res, err := m.RunPipeline(s.Seed, 1, pipeline.DefaultTiming())
			return fmt.Sprintf("%+v", res), err
		}},
		{"node", func(m *abdhfl.Materials) (string, error) {
			cr, err := node.RunCluster(node.ClusterOpts{Materials: m, Seed: s.Seed, StallAfter: 2 * time.Second})
			if err != nil {
				return "", err
			}
			out := fmt.Sprintf("frames %d bytes %d\n", cr.Total.FramesSent, cr.Total.BytesSent)
			for id, r := range cr.Results {
				out += fmt.Sprintf("node %d %+v\n", id, *r)
			}
			return out, nil
		}},
	} {
		t.Run(engine.name, func(t *testing.T) {
			observe := func(c codec.Codec) []string {
				m, err := abdhfl.Build(s)
				if err != nil {
					t.Fatal(err)
				}
				m.Codec, m.Telemetry, m.Trace = c, telemetry.New(), trace.NewTracer(4, 0)
				var mu sync.Mutex
				var filters []string
				m.OnFilter = func(d telemetry.FilterDecision) {
					mu.Lock()
					defer mu.Unlock()
					filters = append(filters, fmt.Sprintf("filter %s %d %d %d %s %v %v %v",
						d.Engine, d.Level, d.Cluster, d.Round, d.Rule, d.Kept, d.Clipped, d.Discarded))
				}
				tr := m.Trace
				res, err := engine.run(m)
				if err != nil {
					t.Fatal(err)
				}
				if len(filters) == 0 {
					t.Fatal("the run reported no filter decisions")
				}
				var spans, metrics strings.Builder
				if err := tr.WriteJSONL(&spans); err != nil {
					t.Fatal(err)
				}
				if err := m.Telemetry.WritePrometheus(&metrics); err != nil {
					t.Fatal(err)
				}
				out := strings.Split(res+spans.String(), "\n")
				for _, ln := range strings.Split(metrics.String(), "\n") {
					// Wall-clock durations are the one sample no two runs share.
					if sp := strings.LastIndexByte(ln, ' '); sp > 0 && strings.Contains(ln[:sp], "_seconds") {
						ln = ln[:sp]
					}
					out = append(out, ln)
				}
				slices.Sort(filters) // node's engines report from their own goroutines
				return append(out, filters...)
			}
			none, ident := observe(nil), observe(codec.Identity{})
			if len(none) != len(ident) {
				t.Fatalf("nil codec gives %d lines of output, identity %d", len(none), len(ident))
			}
			for i := range none {
				if none[i] != ident[i] {
					t.Fatalf("line %d differs:\nnil codec: %s\nidentity:  %s", i, none[i], ident[i])
				}
			}
		})
	}
}
