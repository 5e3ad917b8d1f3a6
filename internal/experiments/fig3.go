package experiments

import (
	"fmt"

	"abdhfl"
	"abdhfl/internal/core"
	"abdhfl/internal/metrics"
	"abdhfl/internal/telemetry"
)

// Fig3Options parameterises the Figure 3 convergence-curve regeneration.
type Fig3Options struct {
	Rounds    int      // 0 -> 60
	Repeats   int      // 0 -> 3
	Samples   int      // 0 -> 200
	Dists     []string // nil -> {iid, noniid}
	Attacks   []string // nil -> {type1, type2}
	Fractions []float64
	// Telemetry, if non-nil, accumulates every run's engine metrics.
	Telemetry *telemetry.Registry
}

func (o *Fig3Options) defaults() {
	if o.Rounds == 0 {
		o.Rounds = 60
	}
	if o.Repeats == 0 {
		o.Repeats = 3
	}
	if o.Samples == 0 {
		o.Samples = 200
	}
	if o.Dists == nil {
		o.Dists = []string{"iid", "noniid"}
	}
	if o.Attacks == nil {
		o.Attacks = []string{"type1", "type2"}
	}
	if o.Fractions == nil {
		o.Fractions = []float64{0.30, 0.50, 0.65}
	}
}

// Fig3Series is one curve with its identifying coordinates.
type Fig3Series struct {
	Dist     string
	Attack   string
	Fraction float64
	System   string // "abdhfl" or "vanilla"
	Series   metrics.Series
}

// Key returns the canonical file-name stem for the series.
func (s Fig3Series) Key() string {
	return fmt.Sprintf("fig3_%s_%s_%d_%s", s.Dist, s.Attack, int(s.Fraction*100), s.System)
}

// RunFig3 regenerates the Figure 3 curves: per scenario, mean accuracy per
// round with a 95% CI band over the repeats, for ABD-HFL and vanilla FL.
func RunFig3(o Fig3Options) ([]Fig3Series, error) {
	o.defaults()
	var out []Fig3Series
	for _, dist := range o.Dists {
		aggregator := "multi-krum"
		if dist == "noniid" {
			aggregator = "median"
		}
		for _, atk := range o.Attacks {
			for _, frac := range o.Fractions {
				s := abdhfl.Scenario{
					Distribution:      abdhfl.Distribution(dist),
					Attack:            abdhfl.Attack(atk),
					Aggregator:        aggregator,
					MaliciousFraction: frac,
					Rounds:            o.Rounds,
					SamplesPerClient:  o.Samples,
					EvalEvery:         1,
				}.WithDefaults()
				m, err := abdhfl.Build(s)
				if err != nil {
					return nil, err
				}
				m.Telemetry = o.Telemetry
				// A slice, not a map: the series order, the shared
				// telemetry stream and the printed table all follow it.
				for _, sys := range []struct {
					name string
					run  func(uint64) (*core.Result, error)
				}{{"abdhfl", m.RunHFL}, {"vanilla", m.RunVanilla}} {
					series, err := abdhfl.Repeats(sys.name, o.Repeats, sys.run)
					if err != nil {
						return nil, err
					}
					out = append(out, Fig3Series{
						Dist: dist, Attack: atk, Fraction: frac,
						System: sys.name, Series: series,
					})
				}
			}
		}
	}
	return out, nil
}
