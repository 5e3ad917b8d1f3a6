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

// BenchmarkTrainShapes runs the two training-bound shapes of the repository
// benchmark (benchmark/workloads.go: table5_cell on the round engine,
// pipeline_round on the asynchronous pipeline) as plain Go benchmarks, so
// that `make profile-train` can put a CPU profile under them.
func BenchmarkTrainShapes(b *testing.B) {
	b.Run("table5_cell", func(b *testing.B) {
		m, err := Build(Scenario{
			Levels: 3, ClusterSize: 4, TopNodes: 4,
			Distribution: DistIID, Aggregator: "multi-krum", TopProtocol: "voting",
			Attack: AttackType1, MaliciousFraction: 0.50, Placement: PlacePrefix,
			Rounds: 5, LocalIters: 5, BatchSize: 32,
			SamplesPerClient: 100, TestSamples: 400, ValidationSamples: 300, EvalEvery: 5,
			Seed: 1,
		})
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

// TestRunPipelineAllocBudget pins what one RunPipeline call allocates on the
// pipeline_round shape, in bytes and in objects: the figures this test
// measures (2.6 MB, 7 000 objects) plus a tenth. The same call allocated
// 16.4 MB when every device owned a model and a workspace and every training
// returned a fresh parameter vector, and 6.4 MB while every step formed its
// partial in a fresh vector, so a budget this close catches the return of
// any of them; the object budget catches a per-step allocation that returns
// even when its bytes are few. `make profile-pipeline` profiles the same
// runs.
func TestRunPipelineAllocBudget(t *testing.T) {
	if testenv.UnderRace() {
		t.Skip("the race detector's own allocations are counted in TotalAlloc")
	}
	const (
		budget  = 2_900_000 // bytes; the benchmark's alloc_bytes_per_run reads in the same unit
		objects = 7_700
	)
	s := pipelineRoundScenario()
	s.Workers = 2
	m, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	run := func() (uint64, uint64) { // bytes, objects
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := m.RunPipeline(3, 1, pipeline.DefaultTiming()); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
	}
	run() // first-use costs are not per-run
	least, fewest := run()
	for i := 0; i < 2; i++ {
		b, o := run()
		least, fewest = min(least, b), min(fewest, o)
	}
	t.Logf("%.2f MB, %d objects per RunPipeline (budget %.2f MB, %d objects)", float64(least)/1e6, fewest, float64(budget)/1e6, objects)
	if least > budget {
		t.Errorf("RunPipeline allocated %d bytes, budget %d", least, budget)
	}
	if fewest > objects {
		t.Errorf("RunPipeline allocated %d objects, budget %d", fewest, objects)
	}
}
