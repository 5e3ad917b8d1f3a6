package metrics

import (
	"math"
	"strings"
	"testing"
)

func TestMeanCI(t *testing.T) {
	mean, half := MeanCI([]float64{1, 2, 3, 4, 5})
	if mean != 3 {
		t.Fatalf("mean = %v", mean)
	}
	if half <= 0 {
		t.Fatalf("half = %v", half)
	}
	if _, h := MeanCI([]float64{7}); h != 0 {
		t.Fatal("single-sample CI not zero")
	}
	if m, h := MeanCI(nil); m != 0 || h != 0 {
		t.Fatal("empty CI not zero")
	}
}

func TestMeanCIShrinksWithSamples(t *testing.T) {
	few := []float64{1, 5}
	many := []float64{1, 5, 1, 5, 1, 5, 1, 5, 1, 5, 1, 5, 1, 5, 1, 5}
	_, hFew := MeanCI(few)
	_, hMany := MeanCI(many)
	if hMany >= hFew {
		t.Fatalf("CI did not shrink: %v vs %v", hFew, hMany)
	}
}

func TestAggregate(t *testing.T) {
	curves := []Curve{
		{Rounds: []int{1, 2}, Values: []float64{0.5, 0.7}},
		{Rounds: []int{1, 2}, Values: []float64{0.6, 0.8}},
	}
	s := Aggregate("test", curves)
	if len(s.Points) != 2 {
		t.Fatalf("points = %d", len(s.Points))
	}
	if math.Abs(s.Points[0].Mean-0.55) > 1e-12 {
		t.Fatalf("mean = %v", s.Points[0].Mean)
	}
	if s.Points[0].Count != 2 {
		t.Fatalf("count = %d", s.Points[0].Count)
	}
	if s.Points[0].Lo > s.Points[0].Mean || s.Points[0].Hi < s.Points[0].Mean {
		t.Fatal("CI band does not bracket the mean")
	}
	if f := s.Final(); f.Round != 2 {
		t.Fatalf("final round = %d", f.Round)
	}
}

func TestAggregateRaggedCurves(t *testing.T) {
	curves := []Curve{
		{Rounds: []int{1, 2, 3}, Values: []float64{0.1, 0.2, 0.3}},
		{Rounds: []int{2, 3}, Values: []float64{0.4, 0.5}},
	}
	s := Aggregate("ragged", curves)
	if len(s.Points) != 3 {
		t.Fatalf("points = %d", len(s.Points))
	}
	if s.Points[0].Count != 1 || s.Points[1].Count != 2 {
		t.Fatal("counts wrong for ragged input")
	}
}

func TestAggregateEmpty(t *testing.T) {
	s := Aggregate("empty", nil)
	if len(s.Points) != 0 {
		t.Fatal("empty aggregate has points")
	}
	if f := s.Final(); f.Round != 0 || f.Mean != 0 {
		t.Fatal("empty final not zero")
	}
}

func TestSeriesWriteCSV(t *testing.T) {
	s := Aggregate("x", []Curve{{Rounds: []int{1}, Values: []float64{0.5}}})
	var b strings.Builder
	if err := s.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasPrefix(out, "round,mean") {
		t.Fatalf("missing header: %q", out)
	}
	if !strings.Contains(out, "1,0.500000") {
		t.Fatalf("missing row: %q", out)
	}
}

func TestTableRender(t *testing.T) {
	tb := Table{Header: []string{"name", "value"}}
	tb.AddRow("alpha", "1")
	tb.AddRow("b") // short row padded
	out := tb.Render()
	if !strings.Contains(out, "name") || !strings.Contains(out, "alpha") {
		t.Fatalf("render: %q", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("rendered %d lines", len(lines))
	}
}

func TestTableCSVEscaping(t *testing.T) {
	tb := Table{Header: []string{"a", "b"}}
	tb.AddRow(`say "hi"`, "x,y")
	var b strings.Builder
	if err := tb.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"say ""hi"""`) {
		t.Fatalf("quote escaping failed: %q", b.String())
	}
	if !strings.Contains(b.String(), `"x,y"`) {
		t.Fatalf("comma escaping failed: %q", b.String())
	}
}

func TestPct(t *testing.T) {
	if Pct(0.578125) != "57.8%" {
		t.Fatalf("Pct = %q", Pct(0.578125))
	}
}
