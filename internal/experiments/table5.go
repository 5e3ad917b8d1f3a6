// Package experiments contains the programmatic generators behind every
// table and figure of the paper's evaluation. Each generator takes an
// options struct (zero values select laptop-scale defaults), runs the
// necessary simulations, and returns structured results that render to the
// text/CSV tables the cmd/ tools print — so the experiment logic itself is
// unit-testable and reusable from Go code.
package experiments

import (
	"abdhfl"
	"abdhfl/internal/core"
	"abdhfl/internal/metrics"
	"abdhfl/internal/telemetry"
)

// Table5Options parameterises the Table V regeneration.
type Table5Options struct {
	Rounds    int       // global rounds per run (paper: 200); 0 -> 60
	Repeats   int       // repeated runs per cell (paper: 5); 0 -> 3
	Samples   int       // samples per client (paper: 937); 0 -> 200
	Fractions []float64 // malicious proportions; nil -> the paper's nine
	// Progress, if non-nil, receives one line per completed cell.
	Progress func(format string, args ...any)
	// Telemetry, if non-nil, accumulates every run's engine metrics (see
	// internal/telemetry); typically telemetry.MaybeServe's registry.
	Telemetry *telemetry.Registry
}

func (o *Table5Options) defaults() {
	if o.Rounds == 0 {
		o.Rounds = 60
	}
	if o.Repeats == 0 {
		o.Repeats = 3
	}
	if o.Samples == 0 {
		o.Samples = 200
	}
	if o.Fractions == nil {
		o.Fractions = []float64{0, 0.05, 0.10, 0.20, 0.30, 0.40, 0.50, 0.578, 0.65}
	}
	if o.Progress == nil {
		o.Progress = func(string, ...any) {}
	}
}

// Table5Family identifies one (distribution, attack) row pair of Table V.
type Table5Family struct {
	Distribution abdhfl.Distribution
	Aggregator   string
	Attack       abdhfl.Attack
}

// Table5Families returns the paper's four families: IID with MultiKrum and
// non-IID with Median, each under Type I and Type II poisoning.
func Table5Families() []Table5Family {
	return []Table5Family{
		{abdhfl.DistIID, "multi-krum", abdhfl.AttackType1},
		{abdhfl.DistIID, "multi-krum", abdhfl.AttackType2},
		{abdhfl.DistNonIID, "median", abdhfl.AttackType1},
		{abdhfl.DistNonIID, "median", abdhfl.AttackType2},
	}
}

// Table5Cell is one measured cell: mean final accuracy with its 95% CI
// half-width, for both systems.
type Table5Cell struct {
	Fraction                float64
	ABDHFL, Vanilla         float64
	ABDHFLHalf, VanillaHalf float64
}

// Table5Row is one family's sweep.
type Table5Row struct {
	Family Table5Family
	Cells  []Table5Cell
}

// Table5Result is the full regenerated table.
type Table5Result struct {
	Options Table5Options
	Rows    []Table5Row
	// Bound is the Theorem 2 tolerance of the default topology.
	Bound float64
}

// RunTable5 regenerates Table V.
func RunTable5(o Table5Options) (*Table5Result, error) {
	o.defaults()
	res := &Table5Result{Options: o, Bound: abdhfl.TheoreticalBound(abdhfl.Scenario{})}
	for _, fam := range Table5Families() {
		row := Table5Row{Family: fam}
		for _, frac := range o.Fractions {
			s := abdhfl.Scenario{
				Distribution:      fam.Distribution,
				Aggregator:        fam.Aggregator,
				Attack:            fam.Attack,
				MaliciousFraction: frac,
				Rounds:            o.Rounds,
				SamplesPerClient:  o.Samples,
				EvalEvery:         o.Rounds,
			}.WithDefaults()
			if frac == 0 {
				s.Attack = abdhfl.AttackNone
			}
			m, err := abdhfl.Build(s)
			if err != nil {
				return nil, err
			}
			m.Telemetry = o.Telemetry
			abd, err := abdhfl.Repeats("abd", o.Repeats, func(seed uint64) (*core.Result, error) {
				return m.RunHFL(seed)
			})
			if err != nil {
				return nil, err
			}
			van, err := abdhfl.Repeats("van", o.Repeats, func(seed uint64) (*core.Result, error) {
				return m.RunVanilla(seed)
			})
			if err != nil {
				return nil, err
			}
			af, vf := abd.Final(), van.Final()
			row.Cells = append(row.Cells, Table5Cell{
				Fraction:    frac,
				ABDHFL:      af.Mean,
				Vanilla:     vf.Mean,
				ABDHFLHalf:  af.Mean - af.Lo,
				VanillaHalf: vf.Mean - vf.Lo,
			})
			o.Progress("%-7s %-6s mal=%-6s ABD-HFL=%-7s Vanilla=%-7s",
				fam.Distribution, fam.Attack, metrics.Pct(frac),
				metrics.Pct(af.Mean), metrics.Pct(vf.Mean))
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Table renders the result in the paper's row layout.
func (r *Table5Result) Table() metrics.Table {
	header := []string{"distribution", "attack", "model"}
	for _, f := range r.Options.Fractions {
		header = append(header, metrics.Pct(f))
	}
	t := metrics.Table{Header: header}
	for _, row := range r.Rows {
		abd := []string{string(row.Family.Distribution), string(row.Family.Attack), "ABD-HFL"}
		van := []string{string(row.Family.Distribution), string(row.Family.Attack), "Vanilla FL"}
		for _, c := range row.Cells {
			abd = append(abd, metrics.Pct(c.ABDHFL))
			van = append(van, metrics.Pct(c.Vanilla))
		}
		t.Rows = append(t.Rows, abd, van)
	}
	return t
}
