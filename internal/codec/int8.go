package codec

import (
	"encoding/binary"
	"math"

	"abdhfl/internal/tensor"
)

// DefaultChunk is the Int8Quant chunk size, matching nn.DefaultChunkSize:
// small enough that one straggling coordinate cannot blow up a whole chunk's
// resolution, large enough that the 16-byte per-chunk range header is noise.
const DefaultChunk = 256

// Int8Quant is per-chunk scale/offset uniform quantization: each chunk of up
// to Chunk coordinates stores its value range [lo, hi] (offset lo, scale
// (hi-lo)/255), and every coordinate becomes one byte code. Encode maps x to
// round(255·(x-lo)/(hi-lo)); decode reconstructs lo·(1-t) + hi·t with
// t = code/255 — a convex combination, so finite chunk bounds can never
// overflow to Inf even at the extremes of the float64 range (the failure
// mode PR 5's aggregate fuzzing taught us to design out). Reconstruction
// error is at most half a step, and — unlike symmetric schemes — a chunk
// whose values share a sign wastes no code points. ~7.9× smaller than raw
// float64 at Chunk=256.
//
// Wire format (little-endian):
//
//	[1]   tag 0x02
//	[4]   uint32 dim
//	[4]   uint32 chunk size
//	per chunk: [8] float64 lo, [8] float64 hi
//	[d]   uint8 codes
type Int8Quant struct {
	// Chunk is the quantization block size; 0 selects DefaultChunk.
	Chunk int
}

// Name implements Codec.
func (Int8Quant) Name() string { return "int8" }

func (c Int8Quant) chunk() int {
	if c.Chunk > 0 {
		return c.Chunk
	}
	return DefaultChunk
}

func numChunks(dim, chunk int) int { return (dim + chunk - 1) / chunk }

// WireBytes implements Codec.
func (c Int8Quant) WireBytes(dim int) int {
	return 9 + 16*numChunks(dim, c.chunk()) + dim
}

// EncodeInto implements Codec.
func (c Int8Quant) EncodeInto(dst []byte, v tensor.Vector, s *Scratch) (int, error) {
	n := c.WireBytes(len(v))
	if len(dst) < n {
		return 0, ErrShortBuffer
	}
	if !tensor.AllFinite(v) {
		return 0, ErrNonFinite
	}
	chunk := c.chunk()
	b := putHeader(dst, tagInt8, len(v))
	binary.LittleEndian.PutUint32(b, uint32(chunk))
	head := b[4:]                              // per-chunk [lo, hi] table
	codes := b[4+16*numChunks(len(v), chunk):] // one byte per coordinate
	for start := 0; start < len(v); start += chunk {
		end := start + chunk
		if end > len(v) {
			end = len(v)
		}
		lo, hi := v[start], v[start]
		for _, x := range v[start+1 : end] {
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		binary.LittleEndian.PutUint64(head, math.Float64bits(lo))
		binary.LittleEndian.PutUint64(head[8:], math.Float64bits(hi))
		head = head[16:]
		// step = (hi-lo)/255 computed without forming hi-lo, which can
		// overflow for finite bounds of opposite sign near ±MaxFloat64.
		// lo/255 is formed once: Go does not hoist a loop-invariant division.
		lo255 := lo / 255
		step := hi/255 - lo255
		if step == 0 {
			for i := start; i < end; i++ {
				codes[i] = 0
			}
			continue
		}
		for i := start; i < end; i++ {
			// t is the coordinate's position in [lo, hi] normalized to [0, 1],
			// again without ever forming x-lo.
			t := (v[i]/255 - lo255) / step
			q := math.Round(255 * t)
			if q < 0 {
				q = 0
			} else if q > 255 {
				q = 255
			}
			codes[i] = byte(q)
		}
	}
	return n, nil
}

// int8T[c] is code c's position c/255 in a chunk's [lo, hi], and
// int8OneMinusT[c] is 1 − int8T[c]: the same bits the per-coordinate
// division and subtraction give, read from a table instead.
var int8T, int8OneMinusT = func() (t, u [256]float64) {
	for c := range t {
		t[c] = float64(c) / 255
		u[c] = 1 - t[c]
	}
	return t, u
}()

// DecodeInto implements Codec.
func (c Int8Quant) DecodeInto(dst tensor.Vector, src []byte, s *Scratch) error {
	b, err := header(src, tagInt8, dst)
	if err != nil {
		return err
	}
	if len(b) < 4 {
		return ErrCorrupt
	}
	chunk := int(binary.LittleEndian.Uint32(b))
	if chunk <= 0 {
		return ErrCorrupt
	}
	nc := numChunks(len(dst), chunk)
	if len(b) != 4+16*nc+len(dst) {
		return ErrCorrupt
	}
	head := b[4:]
	codes := b[4+16*nc:]
	for start := 0; start < len(dst); start += chunk {
		end := start + chunk
		if end > len(dst) {
			end = len(dst)
		}
		lo := math.Float64frombits(binary.LittleEndian.Uint64(head))
		hi := math.Float64frombits(binary.LittleEndian.Uint64(head[8:]))
		head = head[16:]
		// Finite bounds plus the overflow clamp below imply a finite result,
		// so checking the chunk header enforces the postcondition for every
		// coordinate without a per-value validity branch.
		if math.IsNaN(lo) || math.IsInf(lo, 0) || math.IsNaN(hi) || math.IsInf(hi, 0) {
			return ErrNonFinite
		}
		// Each product is at most max(|lo|, |hi|) in magnitude, so below
		// MaxFloat64/2 their sum cannot overflow and needs no clamp.
		if math.Abs(lo) <= math.MaxFloat64/2 && math.Abs(hi) <= math.MaxFloat64/2 {
			for i := start; i < end; i++ {
				q := codes[i]
				dst[i] = lo*int8OneMinusT[q] + hi*int8T[q]
			}
			continue
		}
		for i := start; i < end; i++ {
			q := codes[i]
			x := lo*int8OneMinusT[q] + hi*int8T[q]
			// The exact combination lies between lo and hi; only product
			// rounding at the very top of the float64 range can push the
			// sum over — clamp back to the nearer finite bound.
			if math.IsInf(x, 1) {
				x = math.Max(lo, hi)
			} else if math.IsInf(x, -1) {
				x = math.Min(lo, hi)
			}
			dst[i] = x
		}
	}
	return nil
}
