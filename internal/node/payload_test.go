package node

import (
	"bytes"

	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"abdhfl/internal/codec"
	"abdhfl/internal/rng"
	"abdhfl/internal/tensor"
)

// decoderEngine is the slice of an Engine the payload decoders read: the
// model dimension, the tree (testScenario's, two level-1 clusters), the
// codec and the round-start global every decode
// refers to, a copy of global; its vectors come from a free list of its own.
func decoderEngine(t testing.TB, cdc codec.Codec, global tensor.Vector) *Engine {
	t.Helper()
	return &Engine{dim: len(global), tree: build(t, testScenario("")).Tree, cdc: cdc, cs: codec.NewScratch(), global: global.Clone(), sh: &shared{init: global}}
}

// proposalTestDim spans two int8 chunks, the second one short.
const proposalTestDim = codec.DefaultChunk + 3

func proposalTestVector(r *rng.RNG) tensor.Vector {
	v := tensor.NewVector(proposalTestDim)
	for i := range v {
		v[i] = 3 * r.NormFloat64()
	}
	return v
}

// proposalCodecNames are every registry codec ("delta" is delta-int8),
// with the other delta compositions: every delta decode reads the global.
var proposalCodecNames = append(codec.Names(), "delta-topk", "delta-identity")

// proposalCodec returns the codec registered under name.
func proposalCodec(t testing.TB, name string) codec.Codec {
	t.Helper()
	c, err := codec.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func u32s(vals ...uint32) []byte {
	var raw []byte
	for _, v := range vals {
		raw = binary.LittleEndian.AppendUint32(raw, v)
	}
	return raw
}

// hostileProposal is a KindProposal message only a hostile peer would send
// an int8 leader. A nil want is a framing error, which must be rejected
// before any vector is borrowed; the rest get past the framing and
// are the codec's to reject with want.
type hostileProposal struct {
	name string
	raw  []byte
	want error
}

func hostileProposals(t testing.TB, e *Engine) []hostileProposal {
	t.Helper()
	good, err := e.appendModel(nil, proposalTestVector(rng.New(1)))
	if err != nil {
		t.Fatal(err)
	}
	one := func(payload []byte) []byte { return appendProposals(nil, 0, [][]byte{payload}) }
	// The int8 layout: tag, u32 dim, u32 chunk, then the first chunk's lo.
	foreign := slices.Clone(good)
	binary.LittleEndian.PutUint32(foreign[1:], proposalTestDim+1)
	empty, err := e.appendModel(nil, tensor.Vector{})
	if err != nil {
		t.Fatal(err)
	}
	nanLo := slices.Clone(good)
	binary.LittleEndian.PutUint64(nanLo[9:], math.Float64bits(math.NaN()))
	extra := appendProposals(nil, 0, [][]byte{good, good}) // a second proposal past count 1
	binary.LittleEndian.PutUint32(extra[4:], 1)
	return []hostileProposal{
		{"truncated header", u32s(0)[:3], nil},
		{"count of 2³¹", u32s(0, 1<<31), nil},
		{"count beyond the level-1 clusters", appendProposals(nil, 0, [][]byte{good, good, good}), nil},
		{"member outside the set", appendProposals(nil, 2, [][]byte{good, good}), nil},
		{"no proposals", u32s(0, 0), nil},
		{"truncated length word", append(u32s(0, 1), 0, 0), nil},
		{"second length word missing", u32s(0, 2, 0), nil},
		{"length past the end", append(u32s(0, 1, 10), make([]byte, 9)...), nil},
		{"length of 2³²−1", append(u32s(0, 1, math.MaxUint32), good...), nil},
		// 4 + 2³² − 4 is 0 in 32 bits: the end offset would wrap to the header.
		{"length wraps to the header", append(u32s(0, 1, math.MaxUint32-3), good...), nil},
		{"one byte short", one(good)[:len(one(good))-1], nil},
		{"one byte long", append(one(good), 0), nil},
		{"trailing bytes", extra, nil},
		{"foreign dimension", one(foreign), codec.ErrDimMismatch},
		{"zero dimension", one(empty), codec.ErrDimMismatch},
		{"int8 chunk header carrying NaN", one(nanLo), codec.ErrNonFinite},
	}
}

// TestDecodeProposalsHostileHeaders feeds the proposal decoder messages
// only a hostile peer would send. Every length word is peer-chosen: one
// that claims more than the message holds, up to 2³²−1, must be an error
// having allocated nothing of the peer's choosing, and so must a count a
// proposal set cannot have (2³¹ slice headers would be 48 GiB).
func TestDecodeProposalsHostileHeaders(t *testing.T) {
	e := decoderEngine(t, codec.Int8Quant{}, proposalTestVector(rng.New(2)))
	for _, tc := range hostileProposals(t, e) {
		t.Run(tc.name, func(t *testing.T) {
			e.giveBack()
			_, _, err := e.decodeProposals(tc.raw)
			if err == nil {
				t.Fatal("accepted")
			}
			if tc.want != nil && !errors.Is(err, tc.want) {
				t.Fatalf("error %v, want %v", err, tc.want)
			}
			if tc.want == nil && len(e.lent) != 0 {
				t.Fatalf("borrowed %d vectors for a rejected frame", len(e.lent))
			}
		})
	}
}

// TestDecodeProposalsRoundTrip pins the property forwarding rests on: for
// every codec, a leader's decode of a proposal is bit for
// bit the root's decode of the same partial bytes against the same global,
// in vectors the leader borrowed. The delta codecs' reference is the global,
// so a leader decoding against anything else would fail here.
func TestDecodeProposalsRoundTrip(t *testing.T) {
	r := rng.New(3)
	global := proposalTestVector(r)
	partials := []tensor.Vector{proposalTestVector(r), proposalTestVector(r)}
	partials[1][0], partials[1][1], partials[1][2] = math.SmallestNonzeroFloat64, -0.0, 1e300
	for _, name := range proposalCodecNames {
		t.Run("codec="+name, func(t *testing.T) {
			cdc := proposalCodec(t, name)
			root, leader := decoderEngine(t, cdc, global), decoderEngine(t, cdc, global)
			payloads := make([][]byte, len(partials))
			for i, p := range partials {
				sender := decoderEngine(t, cdc, global)
				var err error
				if payloads[i], err = sender.appendModel(nil, p); err != nil {
					t.Fatal(err)
				}
			}
			member, got, err := leader.decodeProposals(appendProposals(nil, 1, payloads))
			if err != nil {
				t.Fatal(err)
			}
			if member != 1 || len(got) != len(partials) {
				t.Fatalf("member %d with %d proposals, want 1 with %d", member, len(got), len(partials))
			}
			for i, p := range payloads {
				want := tensor.NewVector(proposalTestDim)
				if err := root.decodeModel(want, p); err != nil {
					t.Fatal(err)
				}
				sameParams(t, "proposal", want, got[i])
				if &got[i][0] != &leader.lent[i][0] {
					t.Errorf("proposal %d was not decoded into a borrowed vector", i)
				}
			}
		})
	}
}

// TestDecodeModelRawNonFinite holds the uncompressed payload, a run's
// without a codec, to the decoders' postcondition: raw float64 bits of NaN
// or ±Inf a peer ships are codec.ErrNonFinite, never a vector an
// aggregation rule sees, and such a vector cannot be sent.
func TestDecodeModelRawNonFinite(t *testing.T) {
	e := decoderEngine(t, codec.Identity{}, tensor.NewVector(3))
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := e.appendModel(nil, tensor.Vector{1, bad, 3}); !errors.Is(err, codec.ErrNonFinite) {
			t.Errorf("encoding an update carrying %v: error %v, want codec.ErrNonFinite", bad, err)
		}
		raw, err := e.appendModel(nil, tensor.Vector{1, 2, 3})
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint64(raw[len(raw)-16:], math.Float64bits(bad))
		if err := e.decodeModel(tensor.NewVector(3), raw); !errors.Is(err, codec.ErrNonFinite) {
			t.Errorf("update carrying %v: error %v, want codec.ErrNonFinite", bad, err)
		}
	}
}

// FuzzDecodeProposals feeds the proposal decoder arbitrary messages under
// every codec: it must return an error or count finite
// vectors of the model's dimension, and never panic.
func FuzzDecodeProposals(f *testing.F) {
	r := rng.New(4)
	global := proposalTestVector(r)
	engines := make([]*Engine, len(proposalCodecNames))
	for i, name := range proposalCodecNames {
		engines[i] = decoderEngine(f, proposalCodec(f, name), global)
		p, err := engines[i].appendModel(nil, proposalTestVector(r))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), appendProposals(nil, 0, [][]byte{p}))
		f.Add(uint8(i), appendProposals(nil, 1, [][]byte{p, p}))
	}
	int8At := slices.Index(proposalCodecNames, "int8")
	for _, tc := range hostileProposals(f, engines[int8At]) {
		f.Add(uint8(int8At), tc.raw)
	}
	f.Fuzz(func(t *testing.T, which uint8, raw []byte) {
		e := engines[int(which)%len(engines)]
		e.giveBack()
		_, got, err := e.decodeProposals(raw)
		if err != nil {
			return
		}
		if want := binary.LittleEndian.Uint32(raw[4:]); uint64(len(got)) != uint64(want) {
			t.Fatalf("%d proposals from a message counting %d", len(got), want)
		}
		for i, v := range got {
			if len(v) != proposalTestDim || !tensor.AllFinite(v) {
				t.Fatalf("proposal %d: dim %d, finite %v", i, len(v), tensor.AllFinite(v))
			}
		}
	})
}

// TestDecodePartialAndBallotLengths gives the other two remote-reachable
// decoders length fields that disagree with the message, up to the values
// whose sums leave 32 bits. A ballot must also carry exactly one bit per
// proposal, checked before its bits are sized: a well-formed 1 MiB ballot
// over 3 proposals is rejected having allocated none of it.
func TestDecodePartialAndBallotLengths(t *testing.T) {
	for _, raw := range hostilePartials {
		if _, _, err := decodePartial(raw); err == nil {
			t.Errorf("decodePartial accepted % x", raw)
		}
	}
	if model, audits, err := decodePartial(append(u32s(2), 'x', 'y', '[', ']')); err != nil || string(model) != "xy" || len(audits) != 0 {
		t.Errorf("decodePartial of a well-formed message: %q, %v, %v", model, audits, err)
	}

	for _, tc := range hostileBallots {
		if _, _, err := decodeBallot(tc.raw, tc.want); err == nil {
			t.Errorf("decodeBallot accepted % x over %d proposals", tc.raw, tc.want)
		}
	}
	hostile := appendBallot(nil, 0, make([]bool, 1<<20))
	var err error
	if n := allocatedBy(func() { _, _, err = decodeBallot(hostile, 3) }); n >= 1<<20 {
		t.Errorf("rejecting a 2^20-bit ballot allocated %d bytes", n)
	}
	if err == nil {
		t.Error("decodeBallot accepted 2^20 bits over 3 proposals")
	}
	if member, bits, err := decodeBallot(appendBallot(nil, 3, []bool{true, false, true}), 3); err != nil || member != 3 || len(bits) != 3 || !bits[0] || bits[1] || !bits[2] {
		t.Errorf("decodeBallot round trip: member %d bits %v err %v", member, bits, err)
	}
}

// hostilePartials and hostileBallots are messages whose length fields
// disagree with the message, up to the values whose sums leave 32 bits
// (a ballot's with the number of proposals the root expects), and ballots
// with a bit byte other than 0 or 1.
var (
	hostilePartials = [][]byte{
		nil,
		u32s(1)[:3],
		u32s(1),
		append(u32s(5), "[]"...),
		append(u32s(math.MaxUint32), "[]"...),
		append(u32s(math.MaxUint32-3), "[]"...),
		append(u32s(2), 'x', 'y'), // model fits; audit list missing
	}
	hostileBallots = []struct {
		raw  []byte
		want int
	}{
		{nil, 1},
		{u32s(0, 1)[:7], 1},
		{u32s(0, 1), 1},
		{append(u32s(0, 1), 1, 1), 1},
		{u32s(0, math.MaxUint32), math.MaxUint32},
		{append(u32s(0, math.MaxUint32-7), 1), math.MaxUint32 - 7},
		{append(u32s(0, 2), 1, 0), 3},
		{append(u32s(0, 4), 1, 0, 1, 1), 3},
		{append(u32s(1, 3), 1, 0, 2), 3},
		{append(u32s(0, 1), 0xff), 1},
	}
)

// allocatedBy returns the bytes fn allocates.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzDecodePartial feeds the partial decoder arbitrary messages, seeded
// with partials an engine framed (identity and int8 models, audits with and
// without id lists) and the hostile headers above. It must not panic, and
// what it allocates is bounded by the message, never sized from the
// length word. A nil error means a well-formed partial: the model is the
// length word's count of bytes right after it, aliasing the message, and
// the audit list decodes again to itself once re-encoded.
func FuzzDecodePartial(f *testing.F) {
	audits := []WireAudit{
		{Level: 2, Cluster: 1, Round: 4, Rule: "multi-krum", Kept: []int{3, 5}, Discarded: []int{4}, Transfers: 3},
		{Level: 1, Rule: "centered-clipping", Clipped: []int{0}, Scalars: 2, Excluded: 1},
	}
	for _, name := range []string{"identity", "int8"} {
		e := decoderEngine(f, proposalCodec(f, name), proposalTestVector(rng.New(5)))
		e.jsonEnc = json.NewEncoder(&e.jsonBuf)
		for _, a := range [][]WireAudit{nil, audits} {
			raw, err := e.encodePartial(proposalTestVector(rng.New(6)), a)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(slices.Clone(raw))
		}
	}
	for _, raw := range hostilePartials {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var model []byte
		var audits []WireAudit
		var err error
		if n := allocatedBy(func() { model, audits, err = decodePartial(raw) }); n > 64<<10+256*uint64(len(raw)) {
			t.Fatalf("decoding a %d-byte partial allocated %d bytes", len(raw), n)
		}
		if err != nil {
			return
		}
		n := binary.LittleEndian.Uint32(raw)
		if uint64(len(model)) != uint64(n) || (n > 0 && &model[0] != &raw[4]) {
			t.Fatalf("model of %d bytes, length word %d, aliasing %v", len(model), n, n > 0 && &model[0] == &raw[4])
		}
		tail, err := json.Marshal(audits)
		if err != nil {
			t.Fatal(err)
		}
		_, again, err := decodePartial(append(append(u32s(n), model...), tail...))
		if err != nil || !reflect.DeepEqual(again, audits) {
			t.Fatalf("re-encoded audits decode to %+v, %v; want %+v", again, err, audits)
		}
	})
}

// FuzzDecodeBallot feeds the ballot decoder arbitrary messages over up to
// 2¹⁶−1 proposals (the count is the root's, not the peer's), seeded with
// encoded ballots and the hostile headers above. It must not panic, and
// what it allocates is bounded by the message, never sized from the bit
// count word. A nil error means a well-formed ballot: one byte per
// proposal after the header, and the decoded ballot re-encodes to the
// message byte for byte, so no ballot has a second encoding.
func FuzzDecodeBallot(f *testing.F) {
	for _, bits := range [][]bool{{true}, {false, true, true}, make([]bool, 4)} {
		f.Add(appendBallot(nil, len(bits)-1, bits), uint16(len(bits)))
	}
	for _, tc := range hostileBallots {
		f.Add(tc.raw, uint16(min(tc.want, math.MaxUint16)))
	}
	f.Fuzz(func(t *testing.T, raw []byte, want uint16) {
		var member int
		var bits []bool
		var err error
		if n := allocatedBy(func() { member, bits, err = decodeBallot(raw, int(want)) }); n > 16<<10+2*uint64(len(raw)) {
			t.Fatalf("decoding a %d-byte ballot over %d proposals allocated %d bytes", len(raw), want, n)
		}
		if err != nil {
			return
		}
		if len(bits) != int(want) {
			t.Fatalf("ballot % x over %d proposals decoded to %d bits", raw, want, len(bits))
		}
		if again := appendBallot(nil, member, bits); !bytes.Equal(again, raw) {
			t.Fatalf("ballot % x over %d proposals decoded to member %d bits %v, which encode to % x", raw, want, member, bits, again)
		}
	})
}
