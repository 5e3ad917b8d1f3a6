package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

// Self time is a span's duration less what its direct children cover:
// nested children come off the child, not the grandparent, and siblings
// both come off their parent.
func TestSelfTimeNestedAndSiblings(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Run: 1, Name: "consensus", Start: 0, End: 100},
		{ID: 2, Parent: 1, Run: 1, Name: "nn.eval", Start: 10, End: 30}, // sibling
		{ID: 3, Parent: 2, Run: 1, Name: "tensor", Start: 15, End: 25},  // nested in 2
		{ID: 4, Parent: 1, Run: 1, Name: "nn.eval", Start: 40, End: 60}, // sibling
		{ID: 5, Parent: 0, Run: 2, Name: "consensus", Start: 200, End: 250},
	}
	self := selfTimes(spans)
	for i, wantUS := range []float64{60, 10, 10, 20, 50} {
		if !near(self[i], wantUS/1e6) {
			t.Errorf("span %d self time = %v s, want %v µs", spans[i].ID, self[i], wantUS)
		}
	}
	busy := busyByName(spans)
	if !near(busy[1]["consensus"], 60e-6) || !near(busy[1]["nn.eval"], 30e-6) || !near(busy[1]["tensor"], 10e-6) {
		t.Errorf("run 1 busy = %v", busy[1])
	}
	if !near(busy[2]["consensus"], 50e-6) || len(busy[2]) != 1 {
		t.Errorf("run 2 busy = %v", busy[2])
	}
	// Self times of a run add up to the time its root spans cover.
	sum := 0.0
	for _, b := range busy[1] {
		sum += b
	}
	if !near(sum, 100e-6) {
		t.Errorf("run 1 self times sum to %v, want 100 µs", sum)
	}
}

func TestRecorderParentsAndNilRecorder(t *testing.T) {
	var off *recorder
	off.begin("x") // a nil recorder records nothing and must not panic
	off.end()

	r := newRecorder()
	r.run = 3
	r.begin("consensus")
	r.begin("nn.eval")
	r.end()
	r.begin("nn.eval")
	r.end()
	r.end()
	r.begin("aggregate")
	r.end()
	if len(r.spans) != 4 || len(r.open) != 0 {
		t.Fatalf("recorded %d spans with %d still open", len(r.spans), len(r.open))
	}
	for i, wantParent := range []int{0, 1, 1, 0} {
		s := r.spans[i]
		if s.Parent != wantParent || s.Run != 3 || s.End < s.Start || s.ID != i+1 {
			t.Errorf("span %d = %+v, want parent %d in run 3", i, s, wantParent)
		}
	}
}

func TestUnattributedShare(t *testing.T) {
	layers := map[string]float64{"nn": 0.5, "aggregate": 0.3}
	if got := unattributedShare(layers, 1.0); !near(got, 0.2) {
		t.Errorf("unattributed share = %v, want 0.2", got)
	}
	// A replay that does more than the engine shows as a negative share.
	if got := unattributedShare(layers, 0.5); !near(got, -0.6) {
		t.Errorf("unattributed share = %v, want -0.6", got)
	}
	if got := unattributedShare(nil, 2); got != 1 {
		t.Errorf("nothing replayed leaves %v unattributed, want 1", got)
	}
}

func TestLayerOf(t *testing.T) {
	for name, want := range map[string]string{"nn.train": "nn", "aggregate": "aggregate", "experiments.scale_loop_s": "experiments"} {
		if got := layerOf(name); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", name, got, want)
		}
	}
}
