package codec

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// token is one typed value in a fuzz-derived encode plan. The fuzz input
// bytes are parsed into a token list; the list is encoded with Writer,
// decoded back with Reader, and re-encoded — the canonical-encoding
// contract requires the two encodings to be byte-identical.
type token struct {
	kind byte
	b    bool
	by   byte
	u32  uint32
	u64  uint64
	i    int
	f    float64
	s    string
	bs   []byte
	is   []int
	m    map[int]int
	ss   map[string]bool
}

const numTokenKinds = 11

// parseTokens derives a deterministic token list from fuzz bytes.
func parseTokens(data []byte) []token {
	var toks []token
	for len(data) > 0 && len(toks) < 64 {
		t := token{kind: data[0] % numTokenKinds}
		data = data[1:]
		grab := func(n int) []byte {
			if n > len(data) {
				n = len(data)
			}
			out := data[:n]
			data = data[n:]
			return out
		}
		pad8 := func(b []byte) uint64 {
			var buf [8]byte
			copy(buf[:], b)
			return binary.BigEndian.Uint64(buf[:])
		}
		switch t.kind {
		case 0:
			if b := grab(1); len(b) > 0 {
				t.b = b[0]%2 == 1
			}
		case 1:
			if b := grab(1); len(b) > 0 {
				t.by = b[0]
			}
		case 2:
			t.u32 = uint32(pad8(grab(4)) >> 32)
		case 3:
			t.u64 = pad8(grab(8))
		case 4:
			t.i = int(int64(pad8(grab(8))))
		case 5:
			t.f = math.Float64frombits(pad8(grab(8)))
		case 6:
			t.s = string(grab(int(pad8(grab(1)) >> 56 % 16)))
		case 7:
			t.bs = append([]byte(nil), grab(int(pad8(grab(1))>>56%16))...)
		case 8:
			n := int(pad8(grab(1)) >> 56 % 8)
			for j := 0; j < n; j++ {
				t.is = append(t.is, int(int64(pad8(grab(2)))))
			}
		case 9:
			n := int(pad8(grab(1)) >> 56 % 8)
			t.m = map[int]int{}
			for j := 0; j < n; j++ {
				t.m[int(int64(pad8(grab(2))))] = int(int64(pad8(grab(2))))
			}
		case 10:
			n := int(pad8(grab(1)) >> 56 % 8)
			t.ss = map[string]bool{}
			for j := 0; j < n; j++ {
				t.ss[string(grab(int(pad8(grab(1))>>56%8)))] = true
			}
		}
		toks = append(toks, t)
	}
	return toks
}

// encodeTokens writes the token list. Slices of ints use SortedInts on
// purpose: the round trip then also exercises canonicalization (the decoded
// slice re-encoded with plain Ints must reproduce the sorted wire form).
func encodeTokens(w *Writer, toks []token) {
	for _, t := range toks {
		switch t.kind {
		case 0:
			w.Bool(t.b)
		case 1:
			w.Byte(t.by)
		case 2:
			w.Uint32(t.u32)
		case 3:
			w.Uint64(t.u64)
		case 4:
			w.Int(t.i)
		case 5:
			w.Float64(t.f)
		case 6:
			w.String(t.s)
		case 7:
			w.Bytes32(t.bs)
		case 8:
			w.SortedInts(t.is)
		case 9:
			w.IntMap(t.m)
		case 10:
			w.StringSet(t.ss)
		}
	}
}

// FuzzRoundTrip checks encode → decode → re-encode is byte-identical for
// every primitive the Writer offers, on token lists derived from fuzz input.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 1, 0xff, 2, 1, 2, 3, 4})
	f.Add([]byte{6, 5, 'h', 'e', 'l', 'l', 'o', 7, 3, 1, 2, 3})
	f.Add([]byte{8, 4, 9, 9, 8, 8, 7, 7, 6, 6, 9, 2, 1, 0, 2, 0, 3, 0, 4, 0})
	f.Add([]byte{10, 3, 2, 'h', 'i', 2, 'y', 'o', 1, 'z', 5, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{3, 0xde, 0xad, 0xbe, 0xef, 0xde, 0xad, 0xbe, 0xef, 4, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		toks := parseTokens(data)
		var w1 Writer
		encodeTokens(&w1, toks)
		enc1 := w1.Clone()

		// Decode with the Reader, by token kind.
		r := NewReader(enc1)
		var w2 Writer
		for _, tok := range toks {
			switch tok.kind {
			case 0:
				w2.Bool(r.Bool())
			case 1:
				w2.Byte(r.Byte())
			case 2:
				w2.Uint32(r.Uint32())
			case 3:
				w2.Uint64(r.Uint64())
			case 4:
				w2.Int(r.Int())
			case 5:
				w2.Float64(r.Float64())
			case 6:
				w2.String(r.String())
			case 7:
				w2.Bytes32(r.Bytes32())
			case 8:
				w2.Ints(r.Ints()) // already sorted on the wire
			case 9:
				w2.IntMap(r.IntMap())
			case 10:
				w2.StringSet(r.StringSet())
			}
		}
		if err := r.Err(); err != nil {
			t.Fatalf("decoding our own encoding failed: %v (input %x)", err, data)
		}
		if r.Remaining() != 0 {
			t.Fatalf("decode left %d trailing bytes (input %x)", r.Remaining(), data)
		}
		if !bytes.Equal(enc1, w2.Bytes()) {
			t.Fatalf("re-encoding differs:\n  first:  %x\n  second: %x\n  input:  %x", enc1, w2.Bytes(), data)
		}
	})
}

// FuzzFingerprintStability checks the hashing side: fingerprints are stable
// across re-encodings.
func FuzzFingerprintStability(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{0xff, 0, 0xff, 0, 0xff, 0, 0xff, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if Hash(data) != Hash(append([]byte(nil), data...)) {
			t.Fatal("Hash is not a pure function of the bytes")
		}

		toks := parseTokens(data)
		var w1, w2 Writer
		encodeTokens(&w1, toks)
		encodeTokens(&w2, toks)
		if Hash(w1.Bytes()) != Hash(w2.Bytes()) {
			t.Fatalf("re-encoding the same values changed the fingerprint (input %x)", data)
		}
	})
}
