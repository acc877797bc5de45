package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Wire framing for the sharded-exploration protocol (internal/shard): every
// message travels as one length-prefixed frame
//
//	[u32 payload length][payload][u64 FNV-1a checksum of the payload]
//
// in big-endian byte order. The checksum guards transport integrity — the
// shard protocol trusts handler determinism semantically, so a corrupted
// frame must surface as an error at the frame layer, never as a silently
// wrong exploration record. ReadFrame returns an error (never panics) on
// malformed length prefixes, truncated payloads, or checksum mismatches.

// DefaultMaxFrame is the frame-size ceiling used by the shard protocol: a
// record batch of a large round stays well under it, while a corrupted
// length prefix is rejected before any allocation approaches it.
const DefaultMaxFrame = 1 << 26 // 64 MiB

// Frame-layer errors. io errors from the underlying stream pass through
// unwrapped (EOF on a clean boundary surfaces as io.EOF, so callers can
// detect a peer that exited cleanly).
var (
	ErrFrameTooLarge = errors.New("codec: frame length exceeds limit")
	ErrFrameChecksum = errors.New("codec: frame checksum mismatch")
)

// AppendFrame appends payload's frame encoding to dst and returns the
// extended slice: the one place the frame layout is written. Callers that
// send many frames keep dst across calls and pay one write per frame from a
// buffer they reuse.
func AppendFrame(dst, payload []byte) []byte {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	dst = append(dst, hdr[:]...)
	dst = append(dst, payload...)
	var sum [8]byte
	binary.BigEndian.PutUint64(sum[:], fnvBytes(fnvOffset64, payload))
	return append(dst, sum[:]...)
}

// WriteFrame writes payload as one frame, in one Write. The caller flushes
// any buffering.
func WriteFrame(w io.Writer, payload []byte) error {
	_, err := w.Write(AppendFrame(make([]byte, 0, len(payload)+12), payload))
	return err
}

// ReadFrameInto reads one frame into a caller-owned reusable buffer: the
// payload is read into *buf (grown and written back when too small) and
// the returned slice aliases it, valid until the next call with the same
// buffer. Long-lived frame consumers (the shard protocol reads thousands
// of frames per run) use it to amortize the per-frame payload allocation
// away; it is safe whenever every decoded value is consumed — or copied,
// as codec.Reader's String and Bytes32 do — before the next read.
//
// max bounds the payload length accepted (<= 0 means DefaultMaxFrame); an
// over-limit length prefix fails with ErrFrameTooLarge before allocating. A
// truncated stream fails with io.ErrUnexpectedEOF unless the stream ends
// exactly on a frame boundary, which surfaces as io.EOF.
func ReadFrameInto(r io.Reader, buf *[]byte, max int) ([]byte, error) {
	if max <= 0 {
		max = DefaultMaxFrame
	}
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		// A clean EOF before any header byte is a frame-boundary EOF.
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > uint32(max) {
		return nil, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n, max)
	}
	if cap(*buf) < int(n) {
		*buf = make([]byte, n)
	}
	payload := (*buf)[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	var sum [8]byte
	if _, err := io.ReadFull(r, sum[:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	if binary.BigEndian.Uint64(sum[:]) != fnvBytes(fnvOffset64, payload) {
		return nil, ErrFrameChecksum
	}
	return payload, nil
}

// ReadFrame is ReadFrameInto with a buffer of the frame's own: the payload
// returned is the caller's to keep.
func ReadFrame(r io.Reader, max int) ([]byte, error) {
	var buf []byte
	return ReadFrameInto(r, &buf, max)
}
