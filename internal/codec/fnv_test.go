package codec

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"
)

// The FNV-1a kernel (fnvBytes) skips runs of zero bytes a word at a time,
// and every stored fingerprint depends on it computing exactly what hash/fnv
// computes. These tests hold it, and Combine and Hasher above it, to the
// standard library directly: comparing two calls of the same kernel, as a
// canonical-encoding check does, cannot see a kernel that is consistently
// wrong.

// stdFNV is hash/fnv's 64-bit FNV-1a of b.
func stdFNV(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// checkHashMatchesStdlib compares Hash, HashAfter at every split point, and
// Combine and Hasher over b's whole 8-byte big-endian words with hash/fnv.
func checkHashMatchesStdlib(t testing.TB, b []byte) {
	t.Helper()
	want := stdFNV(b)
	if got := uint64(Hash(b)); got != want {
		t.Fatalf("Hash(%x) = %#x, hash/fnv %#x", b, got, want)
	}
	for k := 0; k <= len(b); k++ {
		if got := uint64(HashAfter(Hash(b[:k]), b[k:])); got != want {
			t.Fatalf("HashAfter split at %d of %x = %#x, hash/fnv %#x", k, b, got, want)
		}
	}
	words := b[:len(b)/8*8]
	fps := make([]Fingerprint, 0, len(words)/8)
	for i := 0; i < len(words); i += 8 {
		fps = append(fps, Fingerprint(binary.BigEndian.Uint64(words[i:])))
	}
	want = stdFNV(words)
	hs := NewHasher()
	for _, fp := range fps {
		hs.Add(fp)
	}
	if got := uint64(Combine(fps...)); got != want {
		t.Fatalf("Combine(%v) = %#x, hash/fnv %#x", fps, got, want)
	}
	if got := uint64(hs.Sum()); got != want {
		t.Fatalf("Hasher over %v = %#x, hash/fnv %#x", fps, got, want)
	}
}

// zeroHeavy encodes a stream of Int, Uint32 and Bool tokens the way state
// encodings look: mostly small values written wide, so most words hold zero,
// one or two non-zero bytes, with some that hold more.
func zeroHeavy(rng *rand.Rand, tokens int) []byte {
	var w Writer
	values := []int{0, 1, 7, 0xff, 0x1ff, 0x10001, 0x10203, -1, 1 << 40, 0x0100000000000001}
	for i := 0; i < tokens; i++ {
		v := values[rng.Intn(len(values))]
		if rng.Intn(4) == 0 {
			v = rng.Intn(1 << uint(rng.Intn(63)))
		}
		switch rng.Intn(3) {
		case 0:
			w.Int(v)
		case 1:
			w.Uint32(uint32(v))
		default:
			w.Bool(v&1 == 1)
		}
	}
	return w.Clone()
}

// TestHashMatchesStdlib runs the comparison on random bytes and on
// zero-heavy token streams at every alignment (0–7 leading non-zero bytes)
// and every length from 0 to 80, so that every word shape the kernel
// distinguishes meets every position a run of zeros can start at.
func TestHashMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= 80; n++ {
		b := make([]byte, n)
		rng.Read(b)
		checkHashMatchesStdlib(t, b)
	}
	for trial := 0; trial < 20; trial++ {
		stream := zeroHeavy(rng, 24)
		for align := 0; align < 8; align++ {
			lead := make([]byte, align)
			for i := range lead {
				lead[i] = byte(1 + rng.Intn(255))
			}
			b := append(lead, stream...)
			for n := 0; n <= 80 && n <= len(b); n++ {
				checkHashMatchesStdlib(t, b[:n])
			}
		}
	}
	checkHashMatchesStdlib(t, make([]byte, 80)) // zeros only
}

// FuzzHashMatchesStdlib compares the fuzzed bytes as given, and expanded
// into a zero-heavy token stream (one Int, Uint32 or Bool per byte).
func FuzzHashMatchesStdlib(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1, 2})
	f.Add([]byte("fingerprint"))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkHashMatchesStdlib(t, data)
		var w Writer
		for _, c := range data {
			switch c % 3 {
			case 0:
				w.Int(int(c >> 2))
			case 1:
				w.Uint32(uint32(c) << 20)
			default:
				w.Bool(c&4 != 0)
			}
		}
		checkHashMatchesStdlib(t, w.Bytes())
	})
}
