package codec

import (
	"encoding/binary"
	"math"

	"abdhfl/internal/tensor"
)

// Identity ships the raw float64 coordinates. Its encode→decode round trip
// is bitwise exact (math.Float64bits both ways), so a run with the Identity
// codec is the uncompressed run bit for bit — the golden baseline every
// lossy codec is measured against, and what every engine runs when no codec
// is configured.
//
// Wire format (little-endian):
//
//	[1]  tag 0x01
//	[4]  uint32 dim
//	[8d] float64 coordinates
type Identity struct{}

// Name implements Codec.
func (Identity) Name() string { return "identity" }

// WireBytes implements Codec.
func (Identity) WireBytes(dim int) int { return 5 + 8*dim }

// EncodeInto implements Codec.
func (c Identity) EncodeInto(dst []byte, v tensor.Vector, s *Scratch) (int, error) {
	n := c.WireBytes(len(v))
	if len(dst) < n {
		return 0, ErrShortBuffer
	}
	if !tensor.AllFinite(v) {
		return 0, ErrNonFinite
	}
	b := putHeader(dst, tagIdentity, len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
	return n, nil
}

// DecodeInto implements Codec.
func (c Identity) DecodeInto(dst tensor.Vector, src []byte, s *Scratch) error {
	if len(src) != c.WireBytes(len(dst)) {
		return ErrCorrupt
	}
	b, err := header(src, tagIdentity, dst)
	if err != nil {
		return err
	}
	for i := range dst {
		x := math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return ErrNonFinite
		}
		dst[i] = x
	}
	return nil
}
