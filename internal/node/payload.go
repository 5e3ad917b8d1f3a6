package node

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"slices"

	"abdhfl/internal/codec"
	"abdhfl/internal/tensor"
)

// Model payload encoding. With a codec configured, a model crossing the
// wire is exactly one codec hop: the sender EncodeInto's the vector (Delta
// reference = the round-start global model both ends hold from
// dissemination) and the receiver DecodeInto's the same bytes against the
// same reference — the distributed realization of core.RunHFL's per-hop
// Transcode, which is what keeps the two engines byte-identical. Without a
// codec, payloads are raw little-endian float64s (lossless).

// encodeModel returns v's wire payload against the current global as the
// codec reference. The bytes live in the engine's send scratch: valid until
// the next encode, which is all Send needs, since it copies.
func (e *Engine) encodeModel(v tensor.Vector) ([]byte, error) {
	var err error
	e.wire, err = e.appendModel(e.wire[:0], v)
	return e.wire, err
}

// appendModel appends v's wire payload to dst.
func (e *Engine) appendModel(dst []byte, v tensor.Vector) ([]byte, error) {
	if e.cdc != nil {
		e.cs.Ref = e.global
		dst = slices.Grow(dst, e.cdc.WireBytes(len(v)))
		n, err := e.cdc.EncodeInto(dst[len(dst):cap(dst)], v, e.cs)
		if err != nil {
			return dst, err
		}
		return dst[:len(dst)+n], nil
	}
	dst = slices.Grow(dst, 8*len(v))
	for _, x := range v {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
	}
	return dst, nil
}

// decodeModel reconstructs a wire payload into dst against the current
// global as the codec reference.
func (e *Engine) decodeModel(dst tensor.Vector, src []byte) error {
	if e.cdc != nil {
		e.cs.Ref = e.global
		return e.cdc.DecodeInto(dst, src, e.cs)
	}
	if len(src) != 8*len(dst) {
		return fmt.Errorf("node: raw model payload is %d bytes, want %d", len(src), 8*len(dst))
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
	return nil
}

// transcodeLocal applies the codec hop to a vector handed over locally
// (a leader's own update, or a partial whose parent leader is the same
// process): the value must degrade exactly as if it had crossed the wire.
func (e *Engine) transcodeLocal(v tensor.Vector) error {
	if e.cdc == nil {
		return nil
	}
	e.cs.Ref = e.global
	_, err := codec.Transcode(e.cdc, v, e.cs)
	return err
}

// Partial message wire format: [u32 LE model length][model payload][JSON
// audit list]. The audit list accumulates every WireAudit produced in the
// sender's subtree this round, so the root can reassemble the run-wide
// filter audit without a separate reporting channel.

// encodePartial frames the partial model agg, codec-encoded, with its
// subtree audits, in the engine's send scratch.
func (e *Engine) encodePartial(agg tensor.Vector, audits []WireAudit) ([]byte, error) {
	out, err := e.appendModel(append(e.wire[:0], 0, 0, 0, 0), agg)
	if err != nil {
		return nil, err
	}
	binary.LittleEndian.PutUint32(out, uint32(len(out)-4))
	e.jsonBuf.Reset()
	if err := e.jsonEnc.Encode(audits); err != nil {
		return nil, err
	}
	tail := e.jsonBuf.Bytes()
	e.wire = append(out, tail[:len(tail)-1]...) // Encode ends with a newline json.Marshal does not write
	return e.wire, nil
}

// ABA ballot-exchange wire formats. Proposals ship as raw little-endian
// float64s with NO codec hop: the root sends each contributing leader the
// exact decoded vectors it holds, so the leader's validation scores — and
// therefore its ballot bits — are bit-identical to what the root (or
// RunHFL) would compute centrally. A codec hop here would let quantization
// noise diverge the distributed ballots from the core engine's.

// appendProposals appends a KindProposal payload to dst: the receiver's
// consensus member index plus every contributing proposal in member order.
// Layout: [u32 member][u32 count][u32 dim][count×dim×f64 LE]. The member
// index is the first word, so one encoding serves every recipient with
// that word rewritten.
func appendProposals(dst []byte, member int, proposals []tensor.Vector) []byte {
	dim := 0
	if len(proposals) > 0 {
		dim = len(proposals[0])
	}
	dst = slices.Grow(dst, 12+8*len(proposals)*dim)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(member))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(proposals)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(dim))
	for _, p := range proposals {
		for _, x := range p {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
		}
	}
	return dst
}

// decodeProposals parses a KindProposal payload into round-scratch
// vectors. Every header field is peer-chosen, so each is bounded on its own
// before the length they imply is computed (in uint64, where the bounded
// product cannot wrap): dim must be the model's, count at most the number
// of level-1 clusters a proposal set can hold, member one of the count.
// Values must be finite, the postcondition codec decodes give every other
// vector that reaches an aggregation rule.
func (e *Engine) decodeProposals(raw []byte) (member int, proposals []tensor.Vector, err error) {
	if len(raw) < 12 {
		return 0, nil, fmt.Errorf("node: proposal message truncated (%d bytes)", len(raw))
	}
	m := binary.LittleEndian.Uint32(raw)
	count := binary.LittleEndian.Uint32(raw[4:])
	dim := binary.LittleEndian.Uint32(raw[8:])
	if uint64(dim) != uint64(e.dim) || uint64(count) > uint64(len(e.tree.Clusters[1])) || m >= count {
		return 0, nil, fmt.Errorf("node: proposal header (member %d, count %d, dim %d) out of range for %d clusters of dim %d", m, count, dim, len(e.tree.Clusters[1]), e.dim)
	}
	if want := 12 + 8*uint64(count)*uint64(dim); uint64(len(raw)) != want {
		return 0, nil, fmt.Errorf("node: proposal message is %d bytes, want %d", len(raw), want)
	}
	proposals = make([]tensor.Vector, count)
	off := 12
	for i := range proposals {
		v := e.roundVec()
		for j := range v {
			v[j] = math.Float64frombits(binary.LittleEndian.Uint64(raw[off:]))
			off += 8
		}
		if !tensor.AllFinite(v) {
			return 0, nil, fmt.Errorf("node: proposal %d: %w", i, codec.ErrNonFinite)
		}
		proposals[i] = v
	}
	return int(m), proposals, nil
}

// appendBallot appends a KindBallot payload to dst: the sender's consensus
// member index plus its validation-voting bits over the proposals.
// Layout: [u32 member][u32 nbits][nbits×u8].
func appendBallot(dst []byte, member int, bits []bool) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(member))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(bits)))
	for _, b := range bits {
		var v byte
		if b {
			v = 1
		}
		dst = append(dst, v)
	}
	return dst
}

// decodeBallot parses a KindBallot payload over want proposals. The bit
// count is peer-chosen, so it is checked against want before anything is
// sized from it.
func decodeBallot(raw []byte, want int) (member int, bits []bool, err error) {
	if len(raw) < 8 {
		return 0, nil, fmt.Errorf("node: ballot message truncated (%d bytes)", len(raw))
	}
	member = int(binary.LittleEndian.Uint32(raw))
	n := binary.LittleEndian.Uint32(raw[4:])
	if uint64(n) != uint64(want) {
		return 0, nil, fmt.Errorf("node: ballot carries %d bits for %d proposals", n, want)
	}
	if uint64(len(raw)) != 8+uint64(n) {
		return 0, nil, fmt.Errorf("node: ballot message is %d bytes, want %d", len(raw), 8+uint64(n))
	}
	bits = make([]bool, n)
	for i := range bits {
		bits[i] = raw[8+i] != 0
	}
	return member, bits, nil
}

// decodePartial splits a partial message into its model payload and
// audits. The model bytes alias raw.
func decodePartial(raw []byte) (model []byte, audits []WireAudit, err error) {
	if len(raw) < 4 {
		return nil, nil, fmt.Errorf("node: partial message truncated (%d bytes)", len(raw))
	}
	n := binary.LittleEndian.Uint32(raw)
	if uint64(n) > uint64(len(raw)-4) {
		return nil, nil, fmt.Errorf("node: partial model length %d exceeds message (%d bytes)", n, len(raw))
	}
	end := 4 + int(n) // at most len(raw)
	if err := json.Unmarshal(raw[end:], &audits); err != nil {
		return nil, nil, fmt.Errorf("node: partial audit list: %w", err)
	}
	return raw[4:end], audits, nil
}
