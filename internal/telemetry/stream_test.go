package telemetry

import (
	"math"
	"testing"

	"abdhfl/internal/rng"
)

func directStats(xs []float64) StreamSnapshot {
	if len(xs) == 0 {
		return StreamSnapshot{}
	}
	snap := StreamSnapshot{Count: int64(len(xs)), Min: xs[0], Max: xs[0]}
	sum := 0.0
	for _, v := range xs {
		sum += v
		if v < snap.Min {
			snap.Min = v
		}
		if v > snap.Max {
			snap.Max = v
		}
	}
	snap.Mean = sum / float64(len(xs))
	if len(xs) > 1 {
		ss := 0.0
		for _, v := range xs {
			d := v - snap.Mean
			ss += d * d
		}
		snap.Std = math.Sqrt(ss / float64(len(xs)))
	}
	return snap
}

func close64(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b))
}

func TestStreamMatchesDirect(t *testing.T) {
	r := rng.New(8)
	xs := make([]float64, 10_000)
	var s Stream
	for i := range xs {
		xs[i] = r.NormFloat64()*3 + 10
		s.Observe(xs[i])
	}
	want := directStats(xs)
	got := s.Snapshot()
	if got.Count != want.Count || got.Min != want.Min || got.Max != want.Max {
		t.Fatalf("count/min/max mismatch: %+v vs %+v", got, want)
	}
	if !close64(got.Mean, want.Mean) || !close64(got.Std, want.Std) {
		t.Fatalf("mean/std mismatch: %+v vs %+v", got, want)
	}
}

func TestStreamEdgeCases(t *testing.T) {
	var nilStream *Stream
	nilStream.Observe(1) // must not panic
	if nilStream.Count() != 0 || nilStream.Snapshot() != (StreamSnapshot{}) {
		t.Fatal("nil stream not inert")
	}
	var empty Stream
	if empty.Snapshot() != (StreamSnapshot{}) {
		t.Fatal("empty snapshot not zero")
	}
	var one Stream
	one.Observe(42)
	snap := one.Snapshot()
	if snap.Count != 1 || snap.Mean != 42 || snap.Std != 0 || snap.Min != 42 || snap.Max != 42 {
		t.Fatalf("single-sample snapshot wrong: %+v", snap)
	}
}
