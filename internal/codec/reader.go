package codec

import (
	"errors"
	"fmt"
	"math"
)

// ErrShortBuffer is reported when a read runs past the end of the encoding.
var ErrShortBuffer = errors.New("codec: read past end of encoding")

// Reader decodes a canonical encoding produced by Writer. Reads after an
// error return zero values and keep the first error (sticky), so a decode
// sequence can run unchecked and be validated once at the end with Err.
// Readers are not safe for concurrent use.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader reads from b. The Reader does not copy b; the caller must not
// mutate it while decoding.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the first decode error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining reports how many bytes are left to decode.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Fail records err as the decode error unless one is already recorded; decoders
// built on Reader use it to reject well-framed but meaningless input.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// take consumes n bytes, or fails.
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.buf) {
		r.Fail(ErrShortBuffer)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// Bool reads a boolean byte; any value other than 0 or 1 is an error, since
// a canonical encoding admits exactly one representation per value.
func (r *Reader) Bool() bool {
	b := r.take(1)
	if b == nil {
		return false
	}
	switch b[0] {
	case 0:
		return false
	case 1:
		return true
	default:
		r.Fail(fmt.Errorf("codec: non-canonical bool byte %#x", b[0]))
		return false
	}
}

// Byte reads a single raw byte.
func (r *Reader) Byte() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Uint32 reads a fixed-width big-endian uint32.
func (r *Reader) Uint32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

// Uint64 reads a fixed-width big-endian uint64.
func (r *Reader) Uint64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	var v uint64
	for _, x := range b {
		v = v<<8 | uint64(x)
	}
	return v
}

// Int reads a signed integer written by Writer.Int.
func (r *Reader) Int() int { return int(int64(r.Uint64())) }

// Int64 reads a signed 64-bit integer.
func (r *Reader) Int64() int64 { return int64(r.Uint64()) }

// Float64 reads an IEEE-754 bit pattern written by Writer.Float64.
func (r *Reader) Float64() float64 { return math.Float64frombits(r.Uint64()) }

// length reads a 32-bit length prefix and checks it against the remaining
// bytes assuming each element occupies at least elemSize bytes, so a
// corrupted length cannot trigger a huge allocation.
func (r *Reader) length(elemSize int) int {
	n := int(r.Uint32())
	if r.err != nil {
		return 0
	}
	if elemSize > 0 && n > r.Remaining()/elemSize {
		r.Fail(ErrShortBuffer)
		return 0
	}
	return n
}

// Count reads an element count written with Writer.Int and checks it against
// the remaining bytes, assuming each element occupies at least elemSize
// bytes. A negative or oversized count — corruption or truncation — sticks
// ErrShortBuffer, so a partial decode can never pass for a clean one and a
// hostile count cannot force a giant allocation.
func (r *Reader) Count(elemSize int) int {
	n := r.Int()
	if r.err != nil {
		return 0
	}
	if n < 0 || n > r.Remaining()/elemSize {
		r.Fail(ErrShortBuffer)
		return 0
	}
	return n
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.length(1)
	b := r.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// Bytes32 reads a length-prefixed byte slice. The result is a copy.
func (r *Reader) Bytes32() []byte {
	n := r.length(1)
	b := r.take(n)
	if b == nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// Ints reads a length-prefixed slice of ints written by Writer.Ints (or
// Writer.SortedInts / Writer.IntSet, whose wire form is the same).
func (r *Reader) Ints() []int {
	n := r.length(8)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = r.Int()
	}
	if r.err != nil {
		return nil
	}
	return out
}

// IntMap reads an int→int map written by Writer.IntMap.
func (r *Reader) IntMap() map[int]int {
	n := r.length(16)
	if r.err != nil {
		return nil
	}
	out := make(map[int]int, n)
	for i := 0; i < n; i++ {
		k := r.Int()
		v := r.Int()
		if r.err != nil {
			return nil
		}
		out[k] = v
	}
	return out
}

// StringSet reads a set of strings written by Writer.StringSet, returned in
// the map form the Writer consumes.
func (r *Reader) StringSet() map[string]bool {
	n := r.length(4)
	if r.err != nil {
		return nil
	}
	out := make(map[string]bool, n)
	for i := 0; i < n; i++ {
		s := r.String()
		if r.err != nil {
			return nil
		}
		out[s] = true
	}
	return out
}
