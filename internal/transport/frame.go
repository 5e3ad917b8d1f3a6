// Package transport is the real wire of the ABD-HFL reproduction: framed,
// length-prefixed protocol messages exchanged between node endpoints over
// one of two interchangeable backends — an in-process loopback whose
// delivery semantics match today's direct channel dispatch, and a TCP
// backend with connection management, duplicate suppression, and peer-stall
// detection. Both backends share one receive path (decode → dupe check →
// telemetry/trace → event-bus dispatch), so a protocol engine written
// against Endpoint behaves byte-identically whichever wire carries it; the
// conformance tests in internal/node pin exactly that.
//
// The fault layer (internal/fault) injects at this level too: every Send
// consults the configured Plan for a deterministic per-frame fate (drop,
// duplicate, delay-induced reorder) keyed by the frame's protocol
// coordinates, so the same plan produces the same fault pattern over
// loopback, over sockets, and across process boundaries.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// NodeID identifies a protocol endpoint. Device and leader processes use
// the device id; the root coordinator uses the first id past the devices.
type NodeID int32

// Frame is the wire unit: a typed, routed protocol message. Payload bytes
// are opaque to the transport (the node layer packs codec-encoded model
// vectors and audit records into them).
type Frame struct {
	// Kind is the protocol message type (see internal/node for the kinds).
	Kind uint8
	// From and To route the frame between endpoints.
	From, To NodeID
	// Round is the protocol round the frame belongs to; receivers use it to
	// bucket collections and discard stale traffic.
	Round uint32
	// Seq is a per-sender monotonic sequence number stamped by Send. It is
	// the duplicate-suppression key: injected duplicates and transport-level
	// retransmissions carry the sender's original Seq.
	Seq uint64
	// Sent is the sender's wall clock in Unix nanoseconds at Send time,
	// carried so receivers can emit hop-level trace spans.
	Sent int64
	// Payload is the message body; may be empty (signal-only frames).
	Payload []byte
	// buf is the wire buffer a received Payload aliases, returned to the
	// endpoint's free list by Release; nil on frames not read off a wire.
	buf []byte
}

// Wire format: a 4-byte big-endian body length L, then the body:
//
//	magic(2) version(1) kind(1) from(4) to(4) round(4) seq(8) sent(8) plen(4) payload(plen)
//
// L must equal headerBody + plen. The redundant plen field cross-checks the
// outer length prefix, so a corrupted length cannot silently shift framing.
const (
	frameMagic   = 0xABD1
	frameVersion = 1
	// headerBody is the fixed body size before the payload.
	headerBody = 2 + 1 + 1 + 4 + 4 + 4 + 8 + 8 + 4
	// headerSize is the full header including the length prefix.
	headerSize = 4 + headerBody
	// DefaultMaxFrame bounds accepted frame sizes (length prefix included);
	// decoders reject larger claims before allocating, so a hostile or
	// corrupt length prefix can never over-allocate.
	DefaultMaxFrame = 1 << 26 // 64 MiB
)

// Frame decode errors. Decoders return errors — never panic — on arbitrary
// input; FuzzFrameDecode pins that contract.
var (
	// ErrFrameTooLarge is returned when a frame (or its length claim)
	// exceeds the configured maximum.
	ErrFrameTooLarge = errors.New("transport: frame exceeds size limit")
	// ErrCorruptFrame is returned for malformed bytes: truncated header,
	// wrong magic or version, or disagreeing length fields.
	ErrCorruptFrame = errors.New("transport: corrupt frame")
)

// EncodedSize returns the exact wire size of a frame with the given payload
// length, including the length prefix.
func EncodedSize(payloadLen int) int { return headerSize + payloadLen }

// putHeader writes f's wire header (length prefix included) into hdr; the
// frame on the wire is hdr followed by f.Payload.
func putHeader(hdr *[headerSize]byte, f *Frame) {
	plen := len(f.Payload)
	binary.BigEndian.PutUint32(hdr[0:4], uint32(headerBody+plen))
	binary.BigEndian.PutUint16(hdr[4:6], frameMagic)
	hdr[6] = frameVersion
	hdr[7] = f.Kind
	binary.BigEndian.PutUint32(hdr[8:12], uint32(f.From))
	binary.BigEndian.PutUint32(hdr[12:16], uint32(f.To))
	binary.BigEndian.PutUint32(hdr[16:20], f.Round)
	binary.BigEndian.PutUint64(hdr[20:28], f.Seq)
	binary.BigEndian.PutUint64(hdr[28:36], uint64(f.Sent))
	binary.BigEndian.PutUint32(hdr[36:40], uint32(plen))
}

// AppendFrame appends the wire encoding of f to dst and returns the
// extended slice.
func AppendFrame(dst []byte, f *Frame) []byte {
	var hdr [headerSize]byte
	putHeader(&hdr, f)
	dst = append(dst, hdr[:]...)
	return append(dst, f.Payload...)
}

// EncodeFrame returns the wire encoding of f as a fresh slice.
func EncodeFrame(f *Frame) []byte {
	return AppendFrame(make([]byte, 0, EncodedSize(len(f.Payload))), f)
}

// DecodeFrame parses exactly one frame from buf into f. Trailing bytes are
// rejected (the framing layer hands whole frames), the payload is aliased
// into buf (callers that retain it must copy), and maxFrame (<= 0 selects
// DefaultMaxFrame) bounds the accepted size.
func DecodeFrame(buf []byte, f *Frame, maxFrame int) error {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	if len(buf) > maxFrame {
		return ErrFrameTooLarge
	}
	if len(buf) < headerSize {
		return fmt.Errorf("%w: %d bytes, need at least %d", ErrCorruptFrame, len(buf), headerSize)
	}
	body := binary.BigEndian.Uint32(buf[0:4])
	if int(body) != len(buf)-4 {
		return fmt.Errorf("%w: length prefix %d for %d body bytes", ErrCorruptFrame, body, len(buf)-4)
	}
	return decodeBody(buf[4:], f)
}

// decodeBody parses a frame body (everything after the length prefix).
func decodeBody(b []byte, f *Frame) error {
	if len(b) < headerBody {
		return fmt.Errorf("%w: truncated header", ErrCorruptFrame)
	}
	if binary.BigEndian.Uint16(b[0:2]) != frameMagic {
		return fmt.Errorf("%w: bad magic", ErrCorruptFrame)
	}
	if b[2] != frameVersion {
		return fmt.Errorf("%w: unknown version %d", ErrCorruptFrame, b[2])
	}
	plen := binary.BigEndian.Uint32(b[headerBody-4 : headerBody])
	if int(plen) != len(b)-headerBody {
		return fmt.Errorf("%w: payload length %d disagrees with body %d", ErrCorruptFrame, plen, len(b)-headerBody)
	}
	f.Kind = b[3]
	f.From = NodeID(int32(binary.BigEndian.Uint32(b[4:8])))
	f.To = NodeID(int32(binary.BigEndian.Uint32(b[8:12])))
	f.Round = binary.BigEndian.Uint32(b[12:16])
	f.Seq = binary.BigEndian.Uint64(b[16:24])
	f.Sent = int64(binary.BigEndian.Uint64(b[24:32]))
	if plen == 0 {
		f.Payload = nil
	} else {
		f.Payload = b[headerBody:]
	}
	return nil
}

// ReadFrame reads one length-prefixed frame from r into f, allocating a
// fresh payload buffer. It validates the length claim against maxFrame
// (<= 0 selects DefaultMaxFrame) BEFORE allocating, so a hostile length
// prefix cannot over-allocate. A clean EOF before the first byte returns
// io.EOF; a connection cut mid-frame returns io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader, f *Frame, maxFrame int) error {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	var lenbuf [4]byte
	if _, err := io.ReadFull(r, lenbuf[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return io.ErrUnexpectedEOF
		}
		return err
	}
	body := binary.BigEndian.Uint32(lenbuf[:])
	if int(body) < headerBody {
		return fmt.Errorf("%w: body length %d below header size", ErrCorruptFrame, body)
	}
	if int(body)+4 > maxFrame {
		return ErrFrameTooLarge
	}
	buf := make([]byte, body)
	if _, err := io.ReadFull(r, buf); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return io.ErrUnexpectedEOF
		}
		return err
	}
	return decodeBody(buf, f)
}
