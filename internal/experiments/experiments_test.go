package experiments

import (
	"math"
	"strings"
	"testing"

	"abdhfl"
)

func TestRunTable5Smoke(t *testing.T) {
	res, err := RunTable5(Table5Options{
		Rounds:    4,
		Repeats:   1,
		Samples:   60,
		Fractions: []float64{0, 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("families = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if len(row.Cells) != 2 {
			t.Fatalf("cells = %d", len(row.Cells))
		}
		for _, c := range row.Cells {
			if c.ABDHFL <= 0 || c.Vanilla <= 0 {
				t.Fatalf("empty cell: %+v", c)
			}
		}
	}
	if math.Abs(res.Bound-0.578125) > 1e-12 {
		t.Fatalf("bound = %v", res.Bound)
	}
	table := res.Table()
	if len(table.Rows) != 8 {
		t.Fatalf("table rows = %d", len(table.Rows))
	}
	if !strings.Contains(table.Render(), "ABD-HFL") {
		t.Fatal("table missing system name")
	}
}

func TestRunFig3Smoke(t *testing.T) {
	series, err := RunFig3(Fig3Options{
		Rounds:    3,
		Repeats:   1,
		Samples:   60,
		Dists:     []string{"iid"},
		Attacks:   []string{"type1"},
		Fractions: []float64{0.25},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 { // abdhfl + vanilla
		t.Fatalf("series = %d", len(series))
	}
	for _, s := range series {
		if len(s.Series.Points) != 3 {
			t.Fatalf("%s points = %d", s.Key(), len(s.Series.Points))
		}
	}
	if series[0].Key() != "fig3_iid_type1_25_"+series[0].System {
		t.Fatalf("key = %q", series[0].Key())
	}
}

// TestFig3SystemOrder: every cell lists abdhfl before vanilla, so the series
// order, the shared telemetry stream and abdhfl-fig3's output never follow
// map iteration order.
func TestFig3SystemOrder(t *testing.T) {
	series, err := RunFig3(Fig3Options{
		Rounds:    1,
		Repeats:   1,
		Samples:   10,
		Dists:     []string{"iid", "noniid"},
		Attacks:   []string{"type1", "type2"},
		Fractions: []float64{0.3, 0.65},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 16 {
		t.Fatalf("series = %d, want 16", len(series))
	}
	for i := 0; i < len(series); i += 2 {
		if series[i].System != "abdhfl" || series[i+1].System != "vanilla" {
			t.Fatalf("cell %s_%s_%v lists %s before %s", series[i].Dist, series[i].Attack,
				series[i].Fraction, series[i].System, series[i+1].System)
		}
	}
}

func TestRunSchemesSmoke(t *testing.T) {
	results, err := RunSchemes(SchemesOptions{Rounds: 3, Samples: 60, Malicious: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("schemes = %d", len(results))
	}
	// Table IV cost ordering: all-CBA (4) must cost more model transfers
	// than all-BRA (3).
	var bra, cba SchemeResult
	for _, r := range results {
		switch r.Scheme {
		case 3:
			bra = r
		case 4:
			cba = r
		}
	}
	if cba.ModelTransfers <= bra.ModelTransfers {
		t.Fatalf("scheme 4 transfers %d not above scheme 3 %d", cba.ModelTransfers, bra.ModelTransfers)
	}
	if bra.ScalarMessages != 0 {
		t.Fatalf("all-BRA scheme sent %d scalar messages", bra.ScalarMessages)
	}
	tbl := SchemesTable(results)
	if len(tbl.Rows) != 4 {
		t.Fatal("schemes table wrong")
	}
}

func TestRunAggregationMatrix(t *testing.T) {
	cells, err := RunAggregationMatrix(MatrixOptions{N: 8, Dim: 50, Trials: 2})
	if err != nil {
		t.Fatal(err)
	}
	// 9 rules x 4 attacks.
	if len(cells) != 36 {
		t.Fatalf("cells = %d", len(cells))
	}
	// The undefended mean must be the worst defence against sign flip.
	var meanErr, krumErr float64
	for _, c := range cells {
		if c.Attack == "sign-flip" {
			switch c.Rule {
			case "mean":
				meanErr = c.Error
			case "multi-krum":
				krumErr = c.Error
			}
		}
	}
	if meanErr <= krumErr {
		t.Fatalf("mean error %v not above multi-krum %v under sign flip", meanErr, krumErr)
	}
	tbl := MatrixTable(cells)
	if len(tbl.Rows) != 9 || len(tbl.Header) != 5 {
		t.Fatalf("matrix table shape %dx%d", len(tbl.Rows), len(tbl.Header))
	}
}

func TestRunE2EMatrixSmoke(t *testing.T) {
	cells, err := RunE2EMatrix(E2EOptions{
		Rounds:   3,
		Samples:  60,
		Attacks:  []abdhfl.Attack{abdhfl.AttackType1, abdhfl.AttackSignFlip},
		Defences: []string{"multi-krum"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("cells = %d", len(cells))
	}
	for _, c := range cells {
		if c.Accuracy <= 0 {
			t.Fatalf("cell %v has no accuracy", c)
		}
	}
	tbl := E2ETable(cells)
	if len(tbl.Rows) != 1 || len(tbl.Header) != 3 {
		t.Fatal("e2e table shape wrong")
	}
}

func TestIsModelAttack(t *testing.T) {
	if !isModelAttack(abdhfl.AttackSignFlip) || !isModelAttack(abdhfl.AttackIPM) {
		t.Fatal("model attacks not classified")
	}
	if isModelAttack(abdhfl.AttackType1) || isModelAttack(abdhfl.AttackBackdoor) {
		t.Fatal("data attacks misclassified")
	}
}

func TestRunFlagSweepSmoke(t *testing.T) {
	rows, err := RunFlagSweep(FlagSweepOptions{
		Levels: 3, ClusterSize: 2, TopNodes: 2,
		Rounds: 4, Samples: 40,
		Cases: DelayCases()[:2],
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if len(r.Nu) != 2 { // flag levels 0 and 1 on a 3-level tree
			t.Fatalf("nu entries = %d", len(r.Nu))
		}
		// ν must be ~0 at flag level 0 and larger deeper.
		if r.Nu[0] > 0.05 {
			t.Fatalf("nu[0] = %v", r.Nu[0])
		}
		if r.Nu[1] <= r.Nu[0] {
			t.Fatalf("nu not increasing with depth: %v", r.Nu)
		}
		if r.BestFlag != 1 {
			t.Fatalf("best flag = %d", r.BestFlag)
		}
	}
	tbl := FlagSweepTable(rows)
	if len(tbl.Rows) != 2 {
		t.Fatal("sweep table wrong")
	}
	if len(FlagSweepTable(nil).Header) != 0 {
		t.Fatal("empty sweep table not empty")
	}
}

func TestRunBounds(t *testing.T) {
	rep, err := RunBounds(BoundsOptions{MaxDepth: 4, ACSMTrees: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.ECSM) != 3 { // depths 2, 3, 4
		t.Fatalf("ECSM rows = %d", len(rep.ECSM))
	}
	for _, row := range rep.ECSM {
		if !row.Survives {
			t.Fatalf("depth %d placement rejected", row.Depth)
		}
		got := float64(row.Placement) / float64(row.Devices)
		if math.Abs(got-row.Bound) > 0.02 {
			t.Fatalf("depth %d placement %v far from bound %v", row.Depth, got, row.Bound)
		}
	}
	if math.Abs(rep.ECSM[1].Bound-0.578125) > 1e-12 {
		t.Fatalf("depth-3 bound = %v", rep.ECSM[1].Bound)
	}
	if len(rep.ACSM) != 3 {
		t.Fatalf("ACSM rows = %d", len(rep.ACSM))
	}
	for _, row := range rep.ACSM {
		if !row.WithinBound {
			t.Fatalf("ACSM row out of bound: %+v", row)
		}
	}
	if len(rep.ECSMTable().Rows) != 3 || len(rep.ACSMTable().Rows) != 3 {
		t.Fatal("bounds tables wrong")
	}
}

func TestRunTradeoff(t *testing.T) {
	rows, err := RunTradeoff(TradeoffOptions{
		Levels: 3, ClusterSize: 2, TopNodes: 2,
		Rounds: 8, Samples: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 { // flag levels 0, 1
		t.Fatalf("rows = %d", len(rows))
	}
	// The trade-off: deeper flag level → higher nu and shorter duration.
	if rows[1].MeanNu <= rows[0].MeanNu {
		t.Fatalf("nu not increasing: %v", rows)
	}
	if rows[1].Duration >= rows[0].Duration {
		t.Fatalf("duration not decreasing: %v", rows)
	}
	tbl := TradeoffTable(rows)
	if len(tbl.Rows) != 2 {
		t.Fatal("tradeoff table wrong")
	}
}
