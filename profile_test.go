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
// that `make profile-train` can put a CPU profile under them, and
// pipeline_round at 40 rounds, whose allocation profile shows what a round
// allocates above what a run sets up (`make profile-pipeline`).
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
	for _, shape := range []struct {
		name   string
		rounds int
	}{{"pipeline_round", 5}, {"pipeline_round_40", 40}} {
		b.Run(shape.name, func(b *testing.B) {
			s := pipelineRoundScenario()
			s.Rounds = shape.rounds
			m, err := Build(s)
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
// runs after a first one allocates: the most this test measured in 40
// runs at GOMAXPROCS 1 to 8, eight of them beside other test binaries
// (136 048 bytes, 1 549 objects), plus a tenth. The same call allocated
// 16.4 MB when every device owned a model and a workspace and every training
// returned a fresh parameter vector, 6.4 MB while every step formed its
// partial in a fresh vector, 2.6 MB while every run grew its own vector
// free list and built its own models, 0.84 MB while it never gave back
// its initial model, flags and globals (19 280 bytes each) and collected
// each round into fresh maps, and 0.22 MB in 3 400 objects while it
// formatted a label per random draw, armed every timer as a closure, kept
// its per-round observations in maps keyed by round and joined each
// training on a channel of its device's own, so a budget this close
// catches the return of any of them; the object budget catches a per-step
// allocation that returns even when its bytes are few. `make
// profile-pipeline` profiles the same runs.
func TestRunPipelineAllocBudget(t *testing.T) {
	if testenv.UnderRace() {
		t.Skip("the race detector's own allocations are counted in TotalAlloc")
	}
	const (
		budget  = 149_700 // bytes; the benchmark's alloc_bytes_per_run reads in the same unit
		objects = 1_704
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

// TestPipelineRoundAllocSlope holds what one more round costs a RunPipeline
// call on the pipeline_round shape as the benchmark runs it: the difference
// between 20- and 10-round calls (each the most of three runs after a
// first), over 10. A round allocates its message boxes and the result's
// per-round records and nothing else: 124 boxes (81 uploads and 39
// partials of 32 bytes, a flag per flag-level cluster and the global of
// 48), the top's vote tally (Stats.Votes), and in bytes alone the run's
// per-round slab entries (its timing observations, about 0.8 kB a round
// here). It read 5 488–5 740 bytes and 124–126 objects in 48 runs at
// GOMAXPROCS 1 to 8. A round cost 25 081 bytes and 421 objects while the
// engine formatted a label per random draw, armed each timer as a closure,
// kept every per-round observation in maps keyed by round, boxed every flag
// stashed during training, and the top's vote and the evaluation allocated
// their scratch.
func TestPipelineRoundAllocSlope(t *testing.T) {
	if testenv.UnderRace() {
		t.Skip("the race detector's own allocations are counted in TotalAlloc")
	}
	const (
		bytesPerRound   = 6_000
		objectsPerRound = 130
	)
	per := func(rounds int) (bytes, objects int64) {
		s := pipelineRoundScenario()
		s.Rounds = rounds
		m, err := Build(s)
		if err != nil {
			t.Fatal(err)
		}
		b, o := allocsPerRun(t, func() error {
			_, err := m.RunPipeline(3, 1, pipeline.DefaultTiming())
			return err
		})
		return int64(b), int64(o)
	}
	b10, o10 := per(10)
	b20, o20 := per(20)
	bytes, objects := (b20-b10)/10, (o20-o10)/10
	t.Logf("%d bytes, %d objects per round (10 rounds: %d B, %d objects; 20 rounds: %d B, %d objects)", bytes, objects, b10, o10, b20, o20)
	if bytes > bytesPerRound {
		t.Errorf("a round allocated %d bytes, budget %d", bytes, bytesPerRound)
	}
	if objects > objectsPerRound {
		t.Errorf("a round allocated %d objects, budget %d", objects, objectsPerRound)
	}
}

// TestRunHFLAllocBudget pins what one RunHFL call allocates on the
// table5_cell shape at two workers, in bytes and in objects, as the most
// any of three runs after a first one allocates: the most this test
// measured in 220 runs at GOMAXPROCS 1 to 4, beside other test binaries
// (42 328 bytes, 213 objects; 219 of the 220 read at most 22 680), plus a
// tenth. The same call allocated 1.94 MB while every run built its own
// models and drew none of its vectors from the process store, and up to
// 54 kB while every evaluation built a workspace per worker, so the budget
// catches two model vectors (19 280 bytes each) that a run allocates again.
func TestRunHFLAllocBudget(t *testing.T) {
	if testenv.UnderRace() {
		t.Skip("the race detector's own allocations are counted in TotalAlloc")
	}
	const (
		budget  = 46_600 // bytes; the benchmark's alloc_bytes_per_run reads in the same unit
		objects = 235
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
