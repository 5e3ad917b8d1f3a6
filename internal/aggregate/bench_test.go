package aggregate

import (
	"fmt"
	"testing"

	"abdhfl/internal/rng"
	"abdhfl/internal/tensor"
)

// Per-rule aggregation microbenchmarks. (What the rule a workload is
// configured with costs inside a run is the repository benchmark's
// aggregate.us_per_call; this sweeps every rule.) The sizes bracket the repository's real loads:
// n=16 is one Table 5 cluster, n=64 the vanilla-FL server; d=4096 is near the
// experiment model (~2.4k params) and d=50000 a larger-model stress case.
// Each op is one steady-state AggregateInto with a warm Scratch — the shape
// every engine now uses per round.
func BenchmarkAggregateRules(b *testing.B) {
	for _, size := range []struct{ n, dim int }{
		{16, 4096},
		{16, 50000},
		{64, 4096},
		{64, 50000},
	} {
		r := rng.New(uint64(size.n*100000 + size.dim))
		honest := honestPopulation(r, size.n*3/4, size.dim, center(size.dim, 1), 0.1)
		byz := honestPopulation(r, size.n-len(honest), size.dim, center(size.dim, -20), 0.5)
		updates := append(honest, byz...)
		for _, name := range Names() {
			rule, err := ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/n%d-d%d", name, size.n, size.dim), func(b *testing.B) {
				s := NewScratch(0)
				dst := tensor.NewVector(size.dim)
				if err := rule.AggregateInto(dst, s, updates); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := rule.AggregateInto(dst, s, updates); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
