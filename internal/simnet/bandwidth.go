package simnet

import "abdhfl/internal/rng"

// SizedLatencyModel extends LatencyModel with a volume-dependent delay term,
// making the simulator bandwidth-aware: when the configured latency model
// implements it, every message additionally pays SizeDelay(volume) on top of
// the random propagation draw and any fault Fate.ExtraDelay. The size term
// is deterministic — it consumes no random bits — so changing payload sizes
// (e.g. swapping codecs) never perturbs the rng streams, and an Identity-
// codec run stays bit-identical to an uncompressed one.
type SizedLatencyModel interface {
	LatencyModel
	// SizeDelay is the transmission time (virtual milliseconds) of a message
	// of the given volume on the link from -> to. Must be deterministic and
	// non-negative.
	SizeDelay(volume int64, from, to NodeID) float64
}

// Bandwidth wraps a base latency model with a transmission-time term: a
// message of volume v (bytes, when the engines ship codec wire sizes) is
// charged Base's propagation delay + v/Rate + PerMessage. It is the
// "bytes/rate + base" model the codec matrix uses to make ν and the round
// timings reflect payload size.
//
// Bandwidth composes with fault-injected ExtraDelay (both terms are added).
type Bandwidth struct {
	// Base draws the size-independent propagation delay; nil means zero.
	Base LatencyModel
	// Rate is the link capacity in volume units per virtual millisecond;
	// <= 0 disables the volume term.
	Rate float64
	// PerMessage is a fixed per-message serialization overhead in virtual
	// milliseconds.
	PerMessage float64
}

// Delay implements LatencyModel, delegating to Base.
func (b Bandwidth) Delay(r *rng.RNG, from, to NodeID) float64 {
	if b.Base == nil {
		return 0
	}
	return b.Base.Delay(r, from, to)
}

// SizeDelay implements SizedLatencyModel.
func (b Bandwidth) SizeDelay(volume int64, from, to NodeID) float64 {
	d := b.PerMessage
	if b.Rate > 0 && volume > 0 {
		d += float64(volume) / b.Rate
	}
	return d
}
