package abdhfl

import (
	"runtime"
	"testing"

	"abdhfl/internal/pipeline"
	"abdhfl/internal/testenv"
)

// pipelineRoundScenario is the shape of the benchmark's pipeline_round
// workload (benchmark/workloads.go): 81 devices under 4 levels, run at ℓF = 1.
func pipelineRoundScenario() Scenario {
	return Scenario{
		Levels: 4, ClusterSize: 3, TopNodes: 3,
		Attack: AttackType1, MaliciousFraction: 0.25, Placement: PlaceRandom,
		Rounds: 5, SamplesPerClient: 80, TestSamples: 600, ValidationSamples: 400, EvalEvery: 1,
		Seed: 1,
	}
}

// table5CellScenario is the shape of the benchmark's table5_cell workload
// (benchmark/workloads.go): one Table V cell, 64 devices under 3 levels.
func table5CellScenario() Scenario {
	return Scenario{
		Levels: 3, ClusterSize: 4, TopNodes: 4,
		Distribution: DistIID, Aggregator: "multi-krum", TopProtocol: "voting",
		Attack: AttackType1, MaliciousFraction: 0.50, Placement: PlacePrefix,
		Rounds: 5, LocalIters: 5, BatchSize: 32,
		SamplesPerClient: 100, TestSamples: 400, ValidationSamples: 300, EvalEvery: 5,
		Seed: 1,
	}
}

// BenchmarkTrainShapes runs the two training-bound shapes of the repository
// benchmark (benchmark/workloads.go: table5_cell on the round engine,
// pipeline_round on the asynchronous pipeline) as plain Go benchmarks, so
// that `make profile-train` can put a CPU profile under them.
func BenchmarkTrainShapes(b *testing.B) {
	b.Run("table5_cell", func(b *testing.B) {
		m, err := Build(table5CellScenario())
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := m.RunHFL(uint64(i%4 + 1)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pipeline_round", func(b *testing.B) {
		m, err := Build(pipelineRoundScenario())
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := m.RunPipeline(uint64(i%4+1), 1, pipeline.DefaultTiming()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// allocsPerRun is the most bytes and objects any of three calls of run
// allocates, after one call that pays the process's first-use costs (lazy
// tables, the process store's vectors and models).
func allocsPerRun(t *testing.T, run func() error) (bytes, objects uint64) {
	t.Helper()
	measure := func() (uint64, uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
	}
	measure()
	for i := 0; i < 3; i++ {
		b, o := measure()
		bytes, objects = max(bytes, b), max(objects, o)
	}
	return bytes, objects
}

// TestRunPipelineAllocBudget pins what one RunPipeline call allocates on the
// pipeline_round shape, in bytes and in objects, as the most any of three
// runs after a first one allocates: the most this test measured in 220
// runs at GOMAXPROCS 1 to 4, beside other test binaries (839 768 bytes,
// 6 009 objects), plus a tenth. The same call allocated 16.4 MB
// when every device owned a model and a workspace and every training
// returned a fresh parameter vector, 6.4 MB while every step formed its
// partial in a fresh vector, and 2.6 MB while every run grew its own vector
// free list and built its own models, so a budget this close catches the
// return of any of them; the object budget catches a per-step allocation
// that returns even when its bytes are few. `make profile-pipeline`
// profiles the same runs.
func TestRunPipelineAllocBudget(t *testing.T) {
	if testenv.UnderRace() {
		t.Skip("the race detector's own allocations are counted in TotalAlloc")
	}
	const (
		budget  = 924_000 // bytes; the benchmark's alloc_bytes_per_run reads in the same unit
		objects = 6_610
	)
	s := pipelineRoundScenario()
	s.Workers = 2
	m, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	most, objs := allocsPerRun(t, func() error {
		_, err := m.RunPipeline(3, 1, pipeline.DefaultTiming())
		return err
	})
	t.Logf("%d bytes, %d objects per RunPipeline (budget %d bytes, %d objects)", most, objs, budget, objects)
	if most > budget {
		t.Errorf("RunPipeline allocated %d bytes, budget %d", most, budget)
	}
	if objs > objects {
		t.Errorf("RunPipeline allocated %d objects, budget %d", objs, objects)
	}
}

// TestRunHFLAllocBudget pins what one RunHFL call allocates on the
// table5_cell shape at two workers, in bytes and in objects, as the most
// any of three runs after a first one allocates: the most this test
// measured in 220 runs at GOMAXPROCS 1 to 4, beside other test binaries
// (54 040 bytes, 215 objects), plus a tenth. The same call
// allocated 1.94 MB while every run built its own models and drew none of
// its vectors from the process store, so the budget catches a model vector
// (19 280 bytes) that a run allocates again.
func TestRunHFLAllocBudget(t *testing.T) {
	if testenv.UnderRace() {
		t.Skip("the race detector's own allocations are counted in TotalAlloc")
	}
	const (
		budget  = 59_500 // bytes; the benchmark's alloc_bytes_per_run reads in the same unit
		objects = 237
	)
	s := table5CellScenario()
	s.Workers = 2
	m, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	most, objs := allocsPerRun(t, func() error {
		_, err := m.RunHFL(3)
		return err
	})
	t.Logf("%d bytes, %d objects per RunHFL (budget %d bytes, %d objects)", most, objs, budget, objects)
	if most > budget {
		t.Errorf("RunHFL allocated %d bytes, budget %d", most, budget)
	}
	if objs > objects {
		t.Errorf("RunHFL allocated %d objects, budget %d", objs, objects)
	}
}
