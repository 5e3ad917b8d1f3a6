package codec

import (
	"encoding/binary"
	"math"
	"testing"

	"abdhfl/internal/rng"
	"abdhfl/internal/tensor"
)

// testCodecs is every registered codec plus the parameter variants the
// property tests should cover.
func testCodecs(t testing.TB) []Codec {
	t.Helper()
	var cs []Codec
	for _, name := range Names() {
		c, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cs = append(cs, c)
	}
	return append(cs,
		Int8Quant{Chunk: 7},
		TopK{Fraction: 0.5},
		TopK{Fraction: 1},
		Delta{Inner: Identity{}},
		Delta{Inner: TopK{Fraction: 0.25}},
	)
}

func randomVector(r *rng.RNG, dim int) tensor.Vector {
	v := tensor.NewVector(dim)
	for i := range v {
		v[i] = r.NormFloat64() * 3
	}
	return v
}

// TestRoundTrip is the core property test: for every codec and a spread of
// dimensions, encode→decode succeeds, fills exactly WireBytes, stays finite,
// and reconstructs within the codec's error bound. Identity and TopK must
// reproduce their surviving coordinates bit-exactly.
func TestRoundTrip(t *testing.T) {
	r := rng.New(11)
	for _, c := range testCodecs(t) {
		for _, dim := range []int{0, 1, 2, 7, 255, 256, 257, 1000} {
			v := randomVector(r.Derive(c.Name()), dim)
			ref := randomVector(r.Derive("ref"), dim)
			s := &Scratch{Ref: ref}
			buf := make([]byte, c.WireBytes(dim))
			n, err := c.EncodeInto(buf, v, s)
			if err != nil {
				t.Fatalf("%s dim %d: encode: %v", c.Name(), dim, err)
			}
			if n != c.WireBytes(dim) {
				t.Fatalf("%s dim %d: encoded %d bytes, WireBytes says %d", c.Name(), dim, n, c.WireBytes(dim))
			}
			got := tensor.NewVector(dim)
			if err := c.DecodeInto(got, buf[:n], s); err != nil {
				t.Fatalf("%s dim %d: decode: %v", c.Name(), dim, err)
			}
			if !tensor.AllFinite(got) {
				t.Fatalf("%s dim %d: non-finite reconstruction", c.Name(), dim)
			}
			checkReconstruction(t, c, v, got, ref)
		}
	}
}

// checkReconstruction asserts the per-codec error bound.
func checkReconstruction(t *testing.T, c Codec, want, got, ref tensor.Vector) {
	t.Helper()
	switch c.(type) {
	case Identity:
		for i := range want {
			if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
				t.Fatalf("identity not bit-exact at %d: %v vs %v", i, want[i], got[i])
			}
		}
	case Int8Quant:
		// Error is bounded by one quantization step of the coordinate's chunk,
		// which is itself bounded by range/255 of the whole vector.
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, x := range want {
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		bound := (hi - lo) / 255
		for i := range want {
			if math.Abs(want[i]-got[i]) > bound+1e-12 {
				t.Fatalf("%s error %v at %d exceeds step bound %v", c.Name(), want[i]-got[i], i, bound)
			}
		}
	case TopK:
		// Survivors are bit-exact, the rest are zero, and no surviving
		// magnitude may be below a zeroed one.
		minKept, maxZeroed := math.Inf(1), 0.0
		for i := range want {
			if got[i] != 0 {
				if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
					t.Fatalf("topk survivor not bit-exact at %d", i)
				}
				minKept = math.Min(minKept, math.Abs(want[i]))
			} else if want[i] != 0 {
				maxZeroed = math.Max(maxZeroed, math.Abs(want[i]))
			}
		}
		if minKept < maxZeroed {
			t.Fatalf("topk kept |%v| but zeroed |%v|", minKept, maxZeroed)
		}
	case Delta:
		// The residual v-ref passes through the inner codec, so the error is
		// bounded by the largest residual magnitude (a TopK inner zeroes the
		// small residuals entirely) plus the inner quantization step.
		bound := 0.0
		for i := range want {
			bound = math.Max(bound, math.Abs(want[i]-ref[i]))
		}
		for i := range want {
			if math.Abs(want[i]-got[i]) > bound+1e-9 {
				t.Fatalf("%s error %v at %d exceeds residual bound %v", c.Name(), want[i]-got[i], i, bound)
			}
		}
	}
}

// TestTranscodeDeterministic pins determinism: transcoding the same vector
// with fresh scratches yields identical bytes and identical reconstructions,
// regardless of scratch history.
func TestTranscodeDeterministic(t *testing.T) {
	r := rng.New(5)
	for _, c := range testCodecs(t) {
		v := randomVector(r.Derive(c.Name()), 301)
		ref := randomVector(r.Derive("ref"), 301)

		a := v.Clone()
		sa := &Scratch{Ref: ref}
		// Warm sa with an unrelated transcode so buffer history differs.
		warm := randomVector(r.Derive("warm"), 64)
		if _, err := Transcode(c, warm, &Scratch{}); err != nil {
			t.Fatal(err)
		}
		na, err := Transcode(c, a, sa)
		if err != nil {
			t.Fatal(err)
		}
		b := v.Clone()
		nb, err := Transcode(c, b, &Scratch{Ref: ref})
		if err != nil {
			t.Fatal(err)
		}
		if na != nb {
			t.Fatalf("%s: wire sizes differ: %d vs %d", c.Name(), na, nb)
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%s: reconstructions differ at %d", c.Name(), i)
			}
		}
	}
}

// TestTopKTieBreaking pins the deterministic index-order tie break: with all
// magnitudes equal, the lowest indices survive.
func TestTopKTieBreaking(t *testing.T) {
	c := TopK{Fraction: 0.5}
	v := tensor.Vector{2, -2, 2, -2, 2, -2}
	s := &Scratch{}
	if _, err := Transcode(c, v, s); err != nil {
		t.Fatal(err)
	}
	want := tensor.Vector{2, -2, 2, 0, 0, 0}
	for i := range v {
		if v[i] != want[i] {
			t.Fatalf("tie break kept %v, want %v", v, want)
		}
	}
}

// TestDeltaUsesReference pins that Delta actually encodes the residual: with
// a reference equal to the vector, the int8 inner codec sees an all-zero
// residual and reconstructs exactly, while a zero reference quantizes the
// raw values.
func TestDeltaUsesReference(t *testing.T) {
	r := rng.New(3)
	v := randomVector(r, 500)
	c := Delta{}

	exact := v.Clone()
	if _, err := Transcode(c, exact, &Scratch{Ref: v.Clone()}); err != nil {
		t.Fatal(err)
	}
	for i := range v {
		if exact[i] != v[i] {
			t.Fatalf("zero residual not reconstructed exactly at %d: %v vs %v", i, exact[i], v[i])
		}
	}

	// With no reference the inner quantizer must still round-trip within its
	// step bound, and a deliberately mismatched Ref length must behave the
	// same as nil.
	raw := v.Clone()
	if _, err := Transcode(c, raw, &Scratch{Ref: tensor.NewVector(3)}); err != nil {
		t.Fatal(err)
	}
	rawNil := v.Clone()
	if _, err := Transcode(c, rawNil, &Scratch{}); err != nil {
		t.Fatal(err)
	}
	for i := range raw {
		if raw[i] != rawNil[i] {
			t.Fatal("mismatched Ref length must decode like nil Ref")
		}
	}
}

// TestEncodeRejectsNonFinite: every codec refuses NaN/Inf input.
func TestEncodeRejectsNonFinite(t *testing.T) {
	for _, c := range testCodecs(t) {
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			v := tensor.Vector{1, bad, 3}
			buf := make([]byte, c.WireBytes(len(v)))
			if _, err := c.EncodeInto(buf, v, nil); err == nil {
				t.Fatalf("%s accepted %v", c.Name(), bad)
			}
		}
	}
}

// TestDecodeErrors covers the malformed-payload contract shared by all
// codecs: short buffers, wrong tags, and dimension mismatches error cleanly.
func TestDecodeErrors(t *testing.T) {
	r := rng.New(9)
	for _, c := range testCodecs(t) {
		v := randomVector(r, 32)
		buf := make([]byte, c.WireBytes(len(v)))
		n, err := c.EncodeInto(buf, v, &Scratch{})
		if err != nil {
			t.Fatal(err)
		}
		dst := tensor.NewVector(len(v))
		if err := c.DecodeInto(dst, buf[:n-1], nil); err == nil {
			t.Fatalf("%s accepted truncated payload", c.Name())
		}
		if err := c.DecodeInto(dst, nil, nil); err == nil {
			t.Fatalf("%s accepted empty payload", c.Name())
		}
		flipped := append([]byte(nil), buf[:n]...)
		flipped[0] ^= 0xFF
		if err := c.DecodeInto(dst, flipped, nil); err == nil {
			t.Fatalf("%s accepted wrong tag", c.Name())
		}
		if err := c.DecodeInto(tensor.NewVector(len(v)+1), buf[:n], nil); err == nil {
			t.Fatalf("%s accepted dimension mismatch", c.Name())
		}
	}
	if _, err := (Identity{}).EncodeInto(make([]byte, 3), tensor.Vector{1}, nil); err != ErrShortBuffer {
		t.Fatalf("short dst: got %v, want ErrShortBuffer", err)
	}
}

// TestByName pins the registry round trip and the unknown-name error.
func TestByName(t *testing.T) {
	for _, name := range Names() {
		c, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if c.Name() != name && name != "delta" { // Delta reports its inner pairing
			t.Fatalf("ByName(%q).Name() = %q", name, c.Name())
		}
	}
	if _, err := ByName("zstd"); err == nil {
		t.Fatal("unknown codec name must error")
	}
}

// TestNestedDeltaRejected: Delta{Inner: Delta{}} would fight over the shared
// scratch, so both directions must refuse it.
func TestNestedDeltaRejected(t *testing.T) {
	c := Delta{Inner: Delta{}}
	v := tensor.Vector{1, 2, 3}
	if _, err := c.EncodeInto(make([]byte, c.WireBytes(3)), v, nil); err == nil {
		t.Fatal("nested Delta encode must error")
	}
	if err := c.DecodeInto(v, []byte{tagDelta, tagDelta, 0}, nil); err == nil {
		t.Fatal("nested Delta decode must error")
	}
}

// TestInt8MatchesItsFormula holds Int8Quant to the arithmetic its doc
// states, bit for bit: code round(255·t) with t = (x/255 − lo/255) / step,
// and reconstruction lo·(1−t) + hi·t with t = code/255. The encoder forms
// lo/255 once per chunk and the decoder reads t and 1−t from tables; both
// must give exactly what the per-coordinate arithmetic gives.
func TestInt8MatchesItsFormula(t *testing.T) {
	r := rng.New(11)
	v := randomVector(r, 3*DefaultChunk+17)
	v[5], v[DefaultChunk+1] = 1e300, -1e300
	int8MatchesItsFormula(t, v)
}

// TestInt8DecodesHugeChunks takes the decoder's other path: chunks whose
// bounds lie beyond MaxFloat64/2, where lo·(1−t) + hi·t is clamped in case
// its rounding overflows — one chunk spanning ±1.7e308 and one just under
// MaxFloat64. Every coordinate must still decode finite and be what the
// formula gives wherever the formula is finite.
func TestInt8DecodesHugeChunks(t *testing.T) {
	r := rng.New(12)
	v := randomVector(r, 2*DefaultChunk+5)
	v[3], v[7] = 1.7e308, -1.7e308
	for i := DefaultChunk; i < 2*DefaultChunk; i++ {
		v[i] = math.MaxFloat64 * (1 - float64(i%7)/1e3)
	}
	int8MatchesItsFormula(t, v)
}

// int8MatchesItsFormula encodes and decodes v and checks every code and
// reconstruction against the per-coordinate arithmetic; a reconstruction
// the formula rounds to Inf must decode to the chunk's nearer bound.
func int8MatchesItsFormula(t *testing.T, v tensor.Vector) {
	t.Helper()
	c := Int8Quant{}
	buf := make([]byte, c.WireBytes(len(v)))
	if _, err := c.EncodeInto(buf, v, nil); err != nil {
		t.Fatal(err)
	}
	got := tensor.NewVector(len(v))
	if err := c.DecodeInto(got, buf, nil); err != nil {
		t.Fatal(err)
	}
	nc := numChunks(len(v), DefaultChunk)
	head, codes := buf[9:], buf[9+16*nc:]
	for i, x := range v {
		lo := math.Float64frombits(binary.LittleEndian.Uint64(head[16*(i/DefaultChunk):]))
		hi := math.Float64frombits(binary.LittleEndian.Uint64(head[16*(i/DefaultChunk)+8:]))
		want := byte(0)
		if step := hi/255 - lo/255; step != 0 {
			want = byte(max(0, min(255, math.Round(255*((x/255-lo/255)/step)))))
		}
		if codes[i] != want {
			t.Fatalf("coordinate %d: code %d, want %d", i, codes[i], want)
		}
		tq := float64(codes[i]) / 255
		rec := lo*(1-tq) + hi*tq
		if math.IsInf(rec, 1) {
			rec = math.Max(lo, hi)
		} else if math.IsInf(rec, -1) {
			rec = math.Min(lo, hi)
		}
		if math.Float64bits(got[i]) != math.Float64bits(rec) {
			t.Fatalf("coordinate %d: decoded %v, want %v", i, got[i], rec)
		}
	}
}
