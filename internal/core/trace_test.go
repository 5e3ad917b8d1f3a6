package core

import (
	"strings"
	"testing"

	"abdhfl/internal/aggregate"
	"abdhfl/internal/trace"
)

// tracedJSONL runs one engine with a fresh tracer and returns the merged
// JSONL stream plus the chrome export, separated by a NUL.
func tracedJSONL(t *testing.T, shards int, run func(tr *trace.Tracer) error) string {
	t.Helper()
	tr := trace.NewTracer(shards, 0)
	if err := run(tr); err != nil {
		t.Fatal(err)
	}
	if tr.Len() == 0 {
		t.Fatal("traced run recorded no spans")
	}
	if tr.Dropped() != 0 {
		t.Fatalf("traced run dropped %d spans", tr.Dropped())
	}
	var j, c strings.Builder
	if err := tr.WriteJSONL(&j); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteChromeTrace(&c); err != nil {
		t.Fatal(err)
	}
	return j.String() + "\x00" + c.String()
}

// goldenAcross pins the tentpole promise for one engine: the exported span
// stream is byte-identical for every (Workers, shards) combination.
func goldenAcross(t *testing.T, run func(tr *trace.Tracer, workers int) error) string {
	t.Helper()
	var want string
	for _, cell := range []struct{ workers, shards int }{
		{1, 1}, {4, 8}, {7, 32},
	} {
		got := tracedJSONL(t, cell.shards, func(tr *trace.Tracer) error {
			return run(tr, cell.workers)
		})
		if want == "" {
			want = got
		} else if got != want {
			t.Fatalf("workers=%d shards=%d produced a different span stream",
				cell.workers, cell.shards)
		}
	}
	return want
}

func TestHFLSpanStreamGolden(t *testing.T) {
	stream := goldenAcross(t, func(tr *trace.Tracer, workers int) error {
		cfg := buildScenario(t, 3, 2, 2, 3, 40, 2)
		cfg.Trace = tr
		cfg.Workers = workers
		_, err := RunHFL(cfg)
		return err
	})
	for _, name := range []string{`"name":"round"`, `"name":"train"`, `"name":"aggregate"`, `"name":"global"`, `"name":"phase-eval"`} {
		if !strings.Contains(stream, name) {
			t.Fatalf("HFL stream missing %s", name)
		}
	}
	// 2 poisoned devices + MultiKrum: the aggregate spans must carry verdicts.
	if !strings.Contains(stream, `"filtered":1`) {
		t.Fatal("HFL aggregate spans carry no filtered counts")
	}
}

func TestVanillaSpanStreamGolden(t *testing.T) {
	base := buildScenario(t, 3, 2, 2, 1, 40, 0)
	stream := goldenAcross(t, func(tr *trace.Tracer, workers int) error {
		_, err := RunVanilla(VanillaConfig{
			Rounds:     3,
			Local:      base.Local,
			Rule:       LevelRule{BRA: aggregate.Mean{}},
			ClientData: base.ClientData,
			TestData:   base.TestData,
			Seed:       7,
			EvalEvery:  1,
			Workers:    workers,
			Trace:      tr,
		})
		return err
	})
	if !strings.Contains(stream, `"name":"global"`) || !strings.Contains(stream, `"name":"train"`) {
		t.Fatal("vanilla stream missing expected spans")
	}
}
