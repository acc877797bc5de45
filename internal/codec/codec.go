// Package codec provides a deterministic binary encoding for protocol
// states, messages and events, plus 64-bit fingerprints over the encoded
// form.
//
// The local model checker (and the global baseline) detect duplicate states
// by comparing hashes of serialized node states, mirroring the MaceMC
// mechanics the paper builds on (§4.2: "To efficiently check for duplicate
// states, we use the hashes of the serialized states"). For hashing to be
// meaningful the encoding must be canonical: two semantically equal values
// must encode to the same bytes. Encoders therefore must write collections
// in a deterministic (sorted) order; the helpers here give protocols the
// primitives to do that without reflection.
package codec

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
)

// Writer accumulates a canonical binary encoding. The zero value is ready to
// use. Writers are not safe for concurrent use.
//
// A Writer has two modes. In byte mode, the default, every write appends to
// a buffer (Bytes). In hashing mode, entered by StartHash, every write folds
// the bytes byte mode would have appended into a running FNV-1a hash (Sum)
// and nothing is buffered: duplicate detection needs the hash of an
// encoding, never the encoding itself. The two modes agree bit for bit —
// Sum after StartHash(p) and some writes is HashAfter(p, the bytes those
// writes append in byte mode).
type Writer struct {
	buf []byte
	// h is the running hash in hashing mode.
	h       uint64
	hashing bool
}

// NewWriter returns a Writer with capacity preallocated for n bytes.
func NewWriter(n int) *Writer {
	return &Writer{buf: make([]byte, 0, n)}
}

// Reset discards the accumulated encoding, retaining the buffer, and returns
// the Writer to byte mode.
func (w *Writer) Reset() { w.buf, w.hashing = w.buf[:0], false }

// StartHash discards the accumulated encoding and puts the Writer in hashing
// mode, with the running hash at prefix: the fingerprint of whatever the
// encoding to come continues (Hash(nil) for an encoding of its own).
func (w *Writer) StartHash(prefix Fingerprint) {
	w.buf, w.h, w.hashing = w.buf[:0], uint64(prefix), true
}

// Sum returns the running hash of a Writer in hashing mode: the fingerprint
// of the prefix given to StartHash followed by everything written since.
// Writing may go on after it.
func (w *Writer) Sum() Fingerprint {
	if !w.hashing {
		panic("codec: Sum on a Writer in byte mode")
	}
	return Fingerprint(w.h)
}

// bytesMode panics unless w is in byte mode; only byte mode has bytes.
func (w *Writer) bytesMode() {
	if w.hashing {
		panic("codec: the bytes of a Writer in hashing mode")
	}
}

// Len reports the number of bytes written so far.
func (w *Writer) Len() int {
	w.bytesMode()
	return len(w.buf)
}

// Bytes returns the accumulated encoding. The slice aliases the Writer's
// internal buffer and is invalidated by further writes or Reset.
func (w *Writer) Bytes() []byte {
	w.bytesMode()
	return w.buf
}

// Clone returns a copy of the accumulated encoding that remains valid after
// the Writer is reused.
func (w *Writer) Clone() []byte {
	w.bytesMode()
	out := make([]byte, len(w.buf))
	copy(out, w.buf)
	return out
}

// Bool writes a boolean as a single byte (0 or 1).
func (w *Writer) Bool(v bool) {
	var b byte
	if v {
		b = 1
	}
	w.Byte(b)
}

// Byte writes a single raw byte.
func (w *Writer) Byte(v byte) {
	if w.hashing {
		w.h = (w.h ^ uint64(v)) * fnvPrime64
		return
	}
	w.buf = append(w.buf, v)
}

// Uint32 writes a fixed-width big-endian uint32. In hashing mode a value
// below 2^8 — most length prefixes — costs one multiplication by P^3 and
// one by P (fnvBytes's zero-run identity); uint32Slow does the rest.
func (w *Writer) Uint32(v uint32) {
	if w.hashing && v < 1<<8 {
		w.h = (w.h*fnvPrime64p3 ^ uint64(v)) * fnvPrime64
		return
	}
	w.uint32Slow(v)
}

// uint32Slow is Uint32 outside its fast path, kept out of line so that
// Uint32 inlines.
//
//go:noinline
func (w *Writer) uint32Slow(v uint32) {
	if !w.hashing {
		w.buf = binary.BigEndian.AppendUint32(w.buf, v)
		return
	}
	if v < 1<<16 {
		w.h = ((w.h*fnvPow[2]^uint64(v>>8))*fnvPrime64 ^ uint64(v&0xff)) * fnvPrime64
		return
	}
	for shift := 24; shift >= 0; shift -= 8 {
		w.h = (w.h ^ uint64(v>>uint(shift)&0xff)) * fnvPrime64
	}
}

// Uint64 writes a fixed-width big-endian uint64. In hashing mode a value
// below 2^8 — most integers of a state — costs one multiplication by P^7
// and one by P instead of eight; uint64Slow does the rest.
func (w *Writer) Uint64(v uint64) {
	if w.hashing && v < 1<<8 {
		w.h = (w.h*fnvPrime64p7 ^ v) * fnvPrime64
		return
	}
	w.uint64Slow(v)
}

// uint64Slow is Uint64 outside its fast path, kept out of line so that
// Uint64 and Int inline.
//
//go:noinline
func (w *Writer) uint64Slow(v uint64) {
	switch {
	case !w.hashing:
		w.buf = binary.BigEndian.AppendUint64(w.buf, v)
	case v < 1<<16:
		w.h = ((w.h*fnvPow[6]^v>>8)*fnvPrime64 ^ v&0xff) * fnvPrime64
	default:
		w.h = fnvUint64(w.h, v)
	}
}

// Int writes a signed integer as a 64-bit two's-complement value. It is
// Uint64 written out again: a call to an inlined Uint64 would put Int over
// the inlining budget, and Int is the write encodings make most.
func (w *Writer) Int(v int) {
	if w.hashing && uint64(v) < 1<<8 {
		w.h = (w.h*fnvPrime64p7 ^ uint64(v)) * fnvPrime64
	} else {
		w.intSlow(v)
	}
}

// intSlow is Int outside its fast path; taking the int unconverted keeps
// Int inside the inlining budget.
//
//go:noinline
func (w *Writer) intSlow(v int) { w.uint64Slow(uint64(v)) }

// Int64 writes a signed 64-bit integer.
func (w *Writer) Int64(v int64) { w.Uint64(uint64(v)) }

// Float64 writes an IEEE-754 bit pattern. NaNs are canonicalized so that
// all NaN payloads encode identically.
func (w *Writer) Float64(v float64) {
	if v != v { // NaN
		w.Uint64(0x7ff8000000000001)
		return
	}
	w.Uint64(math.Float64bits(v))
}

// String writes a length-prefixed string.
func (w *Writer) String(s string) {
	w.Uint32(uint32(len(s)))
	if !w.hashing {
		w.buf = append(w.buf, s...)
		return
	}
	h := w.h
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	w.h = h
}

// Bytes32 writes a length-prefixed byte slice.
func (w *Writer) Bytes32(b []byte) {
	w.Uint32(uint32(len(b)))
	if !w.hashing {
		w.buf = append(w.buf, b...)
		return
	}
	w.h = fnvBytes(w.h, b)
}

// Ints writes a length-prefixed slice of ints in the order given.
func (w *Writer) Ints(vs []int) {
	w.Uint32(uint32(len(vs)))
	for _, v := range vs {
		w.Int(v)
	}
}

// SortedInts writes a length-prefixed slice of ints in ascending order,
// without mutating the argument. Use it to encode sets kept in maps.
func (w *Writer) SortedInts(vs []int) {
	sorted := make([]int, len(vs))
	copy(sorted, vs)
	sort.Ints(sorted)
	w.Ints(sorted)
}

// IntSet writes a canonical encoding of a set of ints represented as map
// keys: length prefix followed by the keys in ascending order.
func (w *Writer) IntSet(set map[int]bool) {
	keys := make([]int, 0, len(set))
	for k, ok := range set {
		if ok {
			keys = append(keys, k)
		}
	}
	sort.Ints(keys)
	w.Ints(keys)
}

// IntMap writes a canonical encoding of an int→int map: length prefix
// followed by key/value pairs in ascending key order.
func (w *Writer) IntMap(m map[int]int) {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	w.Uint32(uint32(len(keys)))
	for _, k := range keys {
		w.Int(k)
		w.Int(m[k])
	}
}

// StringSet writes a canonical encoding of a set of strings represented as
// map keys: length prefix followed by the keys in ascending order.
func (w *Writer) StringSet(set map[string]bool) {
	keys := make([]string, 0, len(set))
	for k, ok := range set {
		if ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	w.Uint32(uint32(len(keys)))
	for _, k := range keys {
		w.String(k)
	}
}

// Encoder is implemented by values that have a canonical binary encoding.
// Implementations must be deterministic: equal values produce equal bytes.
type Encoder interface {
	Encode(w *Writer)
}

// Fingerprint is a 64-bit hash of a canonical encoding. It is the currency
// of duplicate detection throughout the checkers: node states, messages and
// events are all identified by their fingerprints.
type Fingerprint uint64

// String formats the fingerprint as fixed-width hex, convenient in traces.
func (f Fingerprint) String() string { return fmt.Sprintf("%016x", uint64(f)) }

// FNV-1a parameters, inlined so hashing never allocates the stdlib's
// hash.Hash64 interface value. The byte-for-byte results are identical to
// hash/fnv, which keeps every stored fingerprint (fuzz corpora, artifacts)
// stable.
const (
	fnvOffset64 uint64 = 0xcbf29ce484222325
	fnvPrime64  uint64 = 0x100000001b3
)

// fnvPrime64^3 and ^7 (mod 2^64), the factors of the inlined fast paths of
// Writer.Uint32 and Writer.Uint64.
const (
	fnvPrime64p3 uint64 = 0x08a97b0004e7feab
	fnvPrime64p7 uint64 = 0xc5527b8a51d3d2db
)

// fnvPow is fnvPrime64^k (mod 2^64) for k = 0…8, written out so that
// start-up computes nothing.
var fnvPow = [9]uint64{
	0x0000000000000001,
	0x00000100000001b3,
	0x000366000002e329,
	fnvPrime64p3,
	0x9ffaac085635bc91,
	0x0caee32a7d4f6a63,
	0xdc966432edf1c639,
	fnvPrime64p7,
	0x1efac7090aef4a21,
}

// lo7 has the low seven bits of every byte set.
const lo7 = 0x7f7f7f7f7f7f7f7f

// fnvBytes folds b into h, byte for byte the FNV-1a of hash/fnv. A zero
// byte's step is h *= P alone, so a run of k zero bytes is one multiplication
// by P^k: an 8-byte word with at most two non-zero bytes — most words of an
// encoding, whose integers are small values written 8 bytes wide — costs at
// most three multiplications instead of eight. Other words and the tail take
// the byte loop.
func fnvBytes(h uint64, b []byte) uint64 {
	for ; len(b) >= 8; b = b[8:] {
		v := binary.LittleEndian.Uint64(b) // byte k of b is bits 8k…8k+7
		// Bit 8k+7 of nz is set iff byte k is non-zero.
		nz := ((v & lo7) + lo7 | v) &^ lo7
		switch bits.OnesCount64(nz) {
		case 0:
			h *= fnvPow[8]
		case 1:
			j := bits.TrailingZeros64(nz) >> 3
			h = (h*fnvPow[j] ^ v>>(8*j)&0xff) * fnvPow[8-j]
		case 2:
			i, j := bits.TrailingZeros64(nz)>>3, (63-bits.LeadingZeros64(nz))>>3
			h = ((h*fnvPow[i]^v>>(8*i)&0xff)*fnvPow[j-i] ^ v>>(8*j)&0xff) * fnvPow[8-j]
		default:
			for _, c := range b[:8] {
				h ^= uint64(c)
				h *= fnvPrime64
			}
		}
	}
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

// fnvUint64 folds v into h big-endian, matching a Write of the 8-byte
// big-endian encoding.
func fnvUint64(h, v uint64) uint64 {
	for shift := 56; shift >= 0; shift -= 8 {
		h ^= (v >> uint(shift)) & 0xff
		h *= fnvPrime64
	}
	return h
}

// Hash fingerprints raw bytes with FNV-1a.
func Hash(b []byte) Fingerprint {
	return Fingerprint(fnvBytes(fnvOffset64, b))
}

// HashAfter fingerprints the concatenation of some prefix and b, given only
// the prefix's fingerprint: FNV-1a is a running hash, so Hash(prefix ++ b) ==
// HashAfter(Hash(prefix), b). A Writer in hashing mode started at a prefix's
// fingerprint computes the same over what it is written, without the bytes.
func HashAfter(prefix Fingerprint, b []byte) Fingerprint {
	return Fingerprint(fnvBytes(uint64(prefix), b))
}

// maxPooledWriter bounds the buffers retained by the writer pool; an
// occasional huge encoding should not pin its buffer forever.
const maxPooledWriter = 1 << 16

var writerPool = sync.Pool{New: func() any { return NewWriter(256) }}

// GetWriter returns an empty Writer from a shared pool. Callers on hot
// paths pair it with PutWriter to avoid per-encoding allocations; the pool
// is safe for concurrent use.
func GetWriter() *Writer {
	w := writerPool.Get().(*Writer)
	w.Reset()
	return w
}

// PutWriter returns w to the shared pool. The caller must not retain w or
// any slice obtained from Bytes afterwards.
func PutWriter(w *Writer) {
	if cap(w.buf) > maxPooledWriter {
		return
	}
	writerPool.Put(w)
}

// HashOf fingerprints v's encoding: Hash of the bytes Encode writes, folded
// in as they are written by a pooled Writer in hashing mode, so nothing is
// buffered and, steady state, nothing is allocated.
func HashOf(v Encoder) Fingerprint {
	w := GetWriter()
	w.StartHash(Hash(nil))
	v.Encode(w)
	fp := w.Sum()
	PutWriter(w)
	return fp
}

// Combine mixes fingerprints into one, order-sensitively. It is used to
// derive composite identities (for example an event identity from the
// handler kind plus the consumed message).
func Combine(fps ...Fingerprint) Fingerprint {
	h := fnvOffset64
	for _, fp := range fps {
		h = fnvUint64(h, uint64(fp))
	}
	return Fingerprint(h)
}

// Hasher combines fingerprints incrementally without allocating; a sequence
// of Add calls yields exactly Combine over the same sequence. Checkers use
// it to derive composite fingerprints (such as a system state's) from
// memoized parts instead of re-encoding.
type Hasher struct{ h uint64 }

// NewHasher returns a Hasher in the empty-sequence state.
func NewHasher() Hasher { return Hasher{h: fnvOffset64} }

// Add folds one fingerprint into the running combination.
func (s *Hasher) Add(fp Fingerprint) { s.h = fnvUint64(s.h, uint64(fp)) }

// Sum returns the combined fingerprint of the sequence added so far.
func (s Hasher) Sum() Fingerprint { return Fingerprint(s.h) }
