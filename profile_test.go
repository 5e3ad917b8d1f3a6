package abdhfl

import (
	"testing"

	"abdhfl/internal/pipeline"
)

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
		m, err := Build(Scenario{
			Levels: 4, ClusterSize: 3, TopNodes: 3,
			Attack: AttackType1, MaliciousFraction: 0.25, Placement: PlaceRandom,
			Rounds: 5, SamplesPerClient: 80, TestSamples: 600, ValidationSamples: 400, EvalEvery: 1,
			Seed: 1,
		})
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
