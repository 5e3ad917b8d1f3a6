package telemetry

import "math"

// A Stream is a single-writer streaming aggregate over a sequence of float64
// samples: count, mean, variance (Welford's online algorithm), min, and max
// in O(1) state. It replaces per-device series at scale — a million-device
// run keeps one Stream per (level, quantity) instead of a million gauges —
// and is exactly deterministic: the same sample sequence produces the same
// snapshot bit-for-bit.
//
// Unlike Counter/Gauge/Histogram, a Stream is not concurrency-safe; it is
// meant for the simulator's serial dispatch loop. The zero value is an empty
// stream, ready to use.
type Stream struct {
	count int64
	mean  float64
	m2    float64 // sum of squared deviations from the running mean
	min   float64
	max   float64
}

// Observe folds one sample into the stream.
func (s *Stream) Observe(v float64) {
	if s == nil {
		return
	}
	s.count++
	if s.count == 1 {
		s.mean, s.min, s.max = v, v, v
		s.m2 = 0
		return
	}
	delta := v - s.mean
	s.mean += delta / float64(s.count)
	s.m2 += delta * (v - s.mean)
	if v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
}

// Count returns the number of samples observed (0 on a nil stream).
func (s *Stream) Count() int64 {
	if s == nil {
		return 0
	}
	return s.count
}

// A StreamSnapshot is the exported summary of a Stream at one instant.
// Min/Max are 0 for an empty stream; Std is the population standard
// deviation (0 for fewer than two samples).
type StreamSnapshot struct {
	Count int64
	Mean  float64
	Std   float64
	Min   float64
	Max   float64
}

// Snapshot summarizes the stream's current state.
func (s *Stream) Snapshot() StreamSnapshot {
	if s == nil || s.count == 0 {
		return StreamSnapshot{}
	}
	snap := StreamSnapshot{Count: s.count, Mean: s.mean, Min: s.min, Max: s.max}
	if s.count > 1 {
		snap.Std = math.Sqrt(s.m2 / float64(s.count))
	}
	return snap
}
