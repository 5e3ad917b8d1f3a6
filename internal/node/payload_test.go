package node

import (
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"testing"

	"abdhfl/internal/codec"
	"abdhfl/internal/tensor"
)

// decoderEngine is the slice of an Engine the payload decoders read: the
// model dimension and the tree (testScenario's, two level-1 clusters).
func decoderEngine(t *testing.T, dim int) *Engine {
	t.Helper()
	return &Engine{dim: dim, tree: build(t, testScenario("")).Tree}
}

func proposalHeader(member, count, dim uint32, body int) []byte {
	raw := make([]byte, 12+body)
	binary.LittleEndian.PutUint32(raw, member)
	binary.LittleEndian.PutUint32(raw[4:], count)
	binary.LittleEndian.PutUint32(raw[8:], dim)
	return raw
}

// TestDecodeProposalsHostileHeaders feeds the proposal decoder headers only
// a hostile peer would send. The first is ROADMAP 5a's 12-byte frame:
// count=2³¹ and dim=2³⁰ make 8·count·dim wrap to 0, so the old length check
// passed and the decoder asked the runtime for 2³¹ slice headers (48 GiB —
// a fatal out-of-memory, not an error). Every case must come back as an
// error having allocated nothing of the peer's choosing.
func TestDecodeProposalsHostileHeaders(t *testing.T) {
	const dim = 3
	e := decoderEngine(t, dim)
	cases := []struct {
		name string
		raw  []byte
	}{
		{"length wraps to the header", proposalHeader(0, 1<<31, 1<<30, 0)},
		{"count beyond the level-1 clusters", proposalHeader(0, 3, dim, 3*dim*8)},
		{"foreign dimension", proposalHeader(0, 2, dim+1, 2*(dim+1)*8)},
		{"zero dimension", proposalHeader(0, 2, 0, 0)},
		{"member outside the set", proposalHeader(2, 2, dim, 2*dim*8)},
		{"no proposals", proposalHeader(0, 0, dim, 0)},
		{"one byte short", proposalHeader(0, 2, dim, 2*dim*8-1)},
		{"one byte long", proposalHeader(0, 2, dim, 2*dim*8+1)},
		{"truncated header", make([]byte, 11)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := e.decodeProposals(tc.raw); err == nil {
				t.Fatal("accepted")
			}
			if e.scratchUsed != 0 {
				t.Fatalf("took %d scratch vectors for a rejected header", e.scratchUsed)
			}
		})
	}
}

// TestDecodeProposalsRoundTrip pins the accepted form — the encoder's
// output comes back bit for bit, in round-scratch vectors — and the
// finiteness postcondition codec decodes already give.
func TestDecodeProposalsRoundTrip(t *testing.T) {
	const dim = 3
	e := decoderEngine(t, dim)
	want := []tensor.Vector{{1, -2.5, 0}, {math.SmallestNonzeroFloat64, math.MaxFloat64, -0.0}}
	member, got, err := e.decodeProposals(appendProposals(nil, 1, want))
	if err != nil {
		t.Fatal(err)
	}
	if member != 1 || len(got) != len(want) {
		t.Fatalf("member %d with %d proposals, want 1 with %d", member, len(got), len(want))
	}
	for i := range want {
		sameParams(t, "proposal", want[i], got[i])
		if &got[i][0] != &e.scratch[i][0] {
			t.Errorf("proposal %d was not decoded into round scratch", i)
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		e.scratchUsed = 0
		poisoned := []tensor.Vector{{1, 2, 3}, {4, bad, 6}}
		if _, _, err := e.decodeProposals(appendProposals(nil, 0, poisoned)); !errors.Is(err, codec.ErrNonFinite) {
			t.Errorf("proposal carrying %v: error %v, want codec.ErrNonFinite", bad, err)
		}
	}
}

// TestDecodePartialAndBallotLengths gives the other two remote-reachable
// decoders length fields that disagree with the message, up to the values
// whose sums leave 32 bits. A ballot must also carry exactly one bit per
// proposal, checked before its bits are sized: a well-formed 1 MiB ballot
// over 3 proposals is rejected having allocated none of it.
func TestDecodePartialAndBallotLengths(t *testing.T) {
	u32 := func(vals ...uint32) []byte {
		var raw []byte
		for _, v := range vals {
			raw = binary.LittleEndian.AppendUint32(raw, v)
		}
		return raw
	}
	for _, raw := range [][]byte{
		nil,
		u32(1)[:3],
		u32(1),
		append(u32(5), "[]"...),
		append(u32(math.MaxUint32), "[]"...),
		append(u32(math.MaxUint32-3), "[]"...),
		append(u32(2), 'x', 'y'), // model fits; audit list missing
	} {
		if _, _, err := decodePartial(raw); err == nil {
			t.Errorf("decodePartial accepted % x", raw)
		}
	}
	if model, audits, err := decodePartial(append(u32(2), 'x', 'y', '[', ']')); err != nil || string(model) != "xy" || len(audits) != 0 {
		t.Errorf("decodePartial of a well-formed message: %q, %v, %v", model, audits, err)
	}

	for _, tc := range []struct {
		raw  []byte
		want int
	}{
		{nil, 1},
		{u32(0, 1)[:7], 1},
		{u32(0, 1), 1},
		{append(u32(0, 1), 1, 1), 1},
		{u32(0, math.MaxUint32), math.MaxUint32},
		{append(u32(0, math.MaxUint32-7), 1), math.MaxUint32 - 7},
		{append(u32(0, 2), 1, 0), 3},
		{append(u32(0, 4), 1, 0, 1, 1), 3},
	} {
		if _, _, err := decodeBallot(tc.raw, tc.want); err == nil {
			t.Errorf("decodeBallot accepted % x over %d proposals", tc.raw, tc.want)
		}
	}
	hostile := appendBallot(nil, 0, make([]bool, 1<<20))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := decodeBallot(hostile, 3)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Error("decodeBallot accepted 2^20 bits over 3 proposals")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Errorf("rejecting a 2^20-bit ballot allocated %d bytes", n)
	}
	if member, bits, err := decodeBallot(appendBallot(nil, 3, []bool{true, false, true}), 3); err != nil || member != 3 || len(bits) != 3 || !bits[0] || bits[1] || !bits[2] {
		t.Errorf("decodeBallot round trip: member %d bits %v err %v", member, bits, err)
	}
}
