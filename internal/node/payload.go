package node

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"slices"

	"abdhfl/internal/step"
	"abdhfl/internal/tensor"
)

// Model payload encoding. A model crossing the wire is exactly one codec
// hop: the sender EncodeInto's the vector (Delta reference = the round-start
// global model both ends hold from dissemination) and the receiver
// DecodeInto's the same bytes against the same reference — the distributed
// realization of core.RunHFL's per-hop step.Hop, which is what keeps the
// two engines byte-identical. Without a configured codec the codec is
// codec.Identity, so every payload has a codec's tag and dimension header.

// appendModel appends v's wire payload against the current global as the
// codec reference to dst, usually a send buffer borrowed from the store.
func (e *Engine) appendModel(dst []byte, v tensor.Vector) ([]byte, error) {
	e.cs.Ref = e.global
	dst = slices.Grow(dst, e.cdc.WireBytes(len(v)))
	n, err := e.cdc.EncodeInto(dst[len(dst):cap(dst)], v, e.cs)
	if err != nil {
		return dst, err
	}
	return dst[:len(dst)+n], nil
}

// decodeModel reconstructs a wire payload into dst against the current
// global as the codec reference. A nil error leaves dst finite.
func (e *Engine) decodeModel(dst tensor.Vector, src []byte) error {
	e.cs.Ref = e.global
	return e.cdc.DecodeInto(dst, src, e.cs)
}

// transcodeLocal applies the codec hop to a vector handed over locally
// (a leader's own update, or a partial whose parent leader is the same
// process): the value must degrade exactly as if it had crossed the wire,
// so it is the wire's encode and decode (step.Hop).
func (e *Engine) transcodeLocal(v tensor.Vector) error {
	e.cs.Ref = e.global
	_, err := step.Hop(e.cdc, v, e.cs)
	return err
}

// Partial message wire format: [u32 LE model length][model payload][JSON
// audit list]. The audit list accumulates every WireAudit produced in the
// sender's subtree this round, so the root can reassemble the run-wide
// filter audit without a separate reporting channel.

// encodePartial frames the partial model agg, codec-encoded, with its
// subtree audits, in a send buffer borrowed from the store.
func (e *Engine) encodePartial(agg tensor.Vector, audits []WireAudit) ([]byte, error) {
	out, err := e.appendModel(append(step.Store.Buf(), 0, 0, 0, 0), agg)
	if err != nil {
		return nil, err
	}
	binary.LittleEndian.PutUint32(out, uint32(len(out)-4))
	e.jsonBuf.Reset()
	if err := e.jsonEnc.Encode(audits); err != nil {
		return nil, err
	}
	tail := e.jsonBuf.Bytes()
	return append(out, tail[:len(tail)-1]...), nil // Encode ends with a newline json.Marshal does not write
}

// ABA ballot-exchange wire formats. A proposal is a level-1 partial's
// model payload exactly as the root received it: the root forwards the
// bytes, and each leader decodes them against the same round-start global
// the root decoded them against (every node holds it bit for bit from
// dissemination). So the leader's vectors — and therefore its validation
// scores and ballot bits — are the bits the root (or RunHFL) holds. This is
// not a second codec hop: nothing is re-encoded, the root's one decode is
// repeated on the same bytes against the same reference.

// appendProposals appends a KindProposal payload to dst: the receiver's
// consensus member index plus every contributing partial's model payload
// in member order. Layout: [u32 member][u32 count], then per proposal
// [u32 len][len bytes of model payload]. The member index is the first
// word, so one encoding serves every recipient with that word rewritten.
func appendProposals(dst []byte, member int, payloads [][]byte) []byte {
	n := 8
	for _, p := range payloads {
		n += 4 + len(p)
	}
	dst = slices.Grow(dst, n)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(member))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payloads)))
	for _, p := range payloads {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(p)))
		dst = append(dst, p...)
	}
	return dst
}

// decodeProposals parses a KindProposal payload into vectors roundVec
// lends. Every header field is peer-chosen, so each is bounded before
// anything is sized from it: count at most the number of level-1 clusters
// a proposal set can hold, member one of the count, each length word at
// most the bytes that remain, and the last payload must end the message.
// The framing is checked whole before any vector is borrowed; each payload
// then decodes like any model off the wire (decodeModel), whose codec
// header rejects a foreign dimension and whose nil-error result is finite.
func (e *Engine) decodeProposals(raw []byte) (member int, proposals []tensor.Vector, err error) {
	if len(raw) < 8 {
		return 0, nil, fmt.Errorf("node: proposal message truncated (%d bytes)", len(raw))
	}
	m := binary.LittleEndian.Uint32(raw)
	count := binary.LittleEndian.Uint32(raw[4:])
	if uint64(count) > uint64(len(e.tree.Clusters[1])) || m >= count {
		return 0, nil, fmt.Errorf("node: proposal header (member %d, count %d) out of range for %d clusters", m, count, len(e.tree.Clusters[1]))
	}
	rest := raw[8:]
	for i := range count {
		if len(rest) < 4 {
			return 0, nil, fmt.Errorf("node: proposal %d length truncated (%d bytes left)", i, len(rest))
		}
		n := binary.LittleEndian.Uint32(rest)
		if uint64(n) > uint64(len(rest)-4) {
			return 0, nil, fmt.Errorf("node: proposal %d length %d exceeds the %d bytes left", i, n, len(rest)-4)
		}
		rest = rest[4+int(n):]
	}
	if len(rest) != 0 {
		return 0, nil, fmt.Errorf("node: proposal message has %d trailing bytes", len(rest))
	}
	proposals = make([]tensor.Vector, count)
	rest = raw[8:]
	for i := range proposals {
		end := 4 + int(binary.LittleEndian.Uint32(rest))
		v := e.roundVec()
		if err := e.decodeModel(v, rest[4:end]); err != nil {
			return 0, nil, fmt.Errorf("node: proposal %d: %w", i, err)
		}
		proposals[i] = v
		rest = rest[end:]
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
// sized from it. A bit byte other than 0 or 1 is rejected, so every
// ballot has exactly one encoding.
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
		b := raw[8+i]
		if b > 1 {
			return 0, nil, fmt.Errorf("node: ballot bit %d is byte %#x, want 0 or 1", i, b)
		}
		bits[i] = b == 1
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
