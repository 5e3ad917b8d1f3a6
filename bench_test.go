// Micro-benchmarks of units no `go run ./benchmark` metric times: the Table I
// data-poisoning attacks on one shard and the Theorem 2 tolerance check on a
// tree. Whole-run costs — a Table V cell, a pipeline round, the telemetry and
// trace taxes — are the repository benchmark's workloads and layer metrics
// (BENCHMARK.json), and profile_test.go keeps the two training-bound shapes as
// Go benchmarks for `make profile-train` to profile.
package abdhfl

import (
	"testing"

	"abdhfl/internal/attack"
	"abdhfl/internal/dataset"
	"abdhfl/internal/rng"
	"abdhfl/internal/topology"
)

// BenchmarkTable1Attacks measures the data-poisoning attacks of Table I
// applied to one client shard.
func BenchmarkTable1Attacks(b *testing.B) {
	r := rng.New(1)
	base := dataset.Generate(r, 937, dataset.DefaultGen())
	attacks := []attack.DataPoison{
		attack.LabelFlipAll{Target: 9},
		attack.LabelFlipRandom{},
		attack.FeatureNoise{Stddev: 1},
		attack.DefaultBackdoor(),
	}
	for _, a := range attacks {
		b.Run(a.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				d := base.Clone()
				b.StartTimer()
				a.Poison(r, d)
			}
		})
	}
}

// BenchmarkTheorem2Bound measures the tolerance-theory verification unit:
// bound computation, bound-attaining placement, and ideal-filtering check on
// a 5-level, 1024-device tree.
func BenchmarkTheorem2Bound(b *testing.B) {
	tree, err := topology.NewECSM(5, 4, 4)
	if err != nil {
		b.Fatal(err)
	}
	tol := topology.Tolerance{Gamma1: 0.25, Gamma2: 0.25}
	for i := 0; i < b.N; i++ {
		placement := tol.AdversarialPlacement(tree)
		if !tol.SurvivesFiltering(tree, placement) {
			b.Fatal("bound-attaining placement rejected")
		}
	}
}
