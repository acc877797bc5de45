package codec

import (
	"math"
	"math/rand"
	"testing"
)

// A Writer in hashing mode folds each write straight into FNV-1a, with fast
// paths for small integers, instead of buffering the bytes. These tests hold
// it to byte mode: the same writes, StartHash(p) … Sum() against
// HashAfter(p, the bytes byte mode wrote), and against hash/fnv over the
// prefix's bytes and those bytes.

// foldInts are the integers whose big-endian width the fold's fast paths
// switch on: every byte width, both signs, and both sides of each fast
// path's bound.
var foldInts = []int{
	0, 1, 127, 255, 256, 257, 65535, 65536, 1<<24 - 1, 1 << 24, 1<<32 - 1, 1 << 32,
	1 << 40, 1 << 48, 1 << 56, math.MaxInt64, -1, -255, -256, -65536, math.MinInt64,
}

// foldFloats include NaNs with different payloads, which encode alike.
var foldFloats = []float64{
	0, math.Copysign(0, -1), 1.5, -2, math.Inf(1), math.NaN(),
	math.Float64frombits(0x7ff8000000000123), math.Float64frombits(0xfff0000000000001),
}

// opReader turns bytes into the arguments of Writer calls; past the end of
// its data every read is zero.
type opReader struct{ data []byte }

func (r *opReader) byte() byte {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return b
}

// int is one of foldInts, or a value of a random byte width and sign.
func (r *opReader) int() int {
	s := r.byte()
	if s&1 == 0 {
		return foldInts[int(s>>1)%len(foldInts)]
	}
	var v uint64
	for n := int(s>>1&7) + 1; n > 0; n-- {
		v = v<<8 | uint64(r.byte())
	}
	if s&0x80 != 0 {
		v = -v
	}
	return int(v)
}

func (r *opReader) ints() []int {
	vs := make([]int, r.byte()%6)
	for i := range vs {
		vs[i] = r.int()
	}
	return vs
}

func (r *opReader) string() string {
	b := make([]byte, r.byte()%12)
	for i := range b {
		b[i] = r.byte()
	}
	return string(b)
}

// numFoldOps is the number of Writer methods writeOp calls.
const numFoldOps = 14

// writeOp makes the one Writer call that r's next bytes describe: every
// writing method of Writer has an op.
func writeOp(w *Writer, r *opReader) {
	switch r.byte() % numFoldOps {
	case 0:
		w.Bool(r.byte()&1 == 1)
	case 1:
		w.Byte(r.byte())
	case 2:
		w.Uint32(uint32(r.int()))
	case 3:
		w.Uint64(uint64(r.int()))
	case 4:
		w.Int(r.int())
	case 5:
		w.Int64(int64(r.int()))
	case 6:
		if s := r.byte(); s&1 == 0 {
			w.Float64(foldFloats[int(s>>1)%len(foldFloats)])
		} else {
			w.Float64(math.Float64frombits(uint64(r.int())))
		}
	case 7:
		w.String(r.string())
	case 8:
		w.Bytes32([]byte(r.string()))
	case 9:
		w.Ints(r.ints())
	case 10:
		w.SortedInts(r.ints())
	case 11:
		set := map[int]bool{}
		for _, v := range r.ints() {
			set[v] = v&2 == 0 // false members are not in the set
		}
		w.IntSet(set)
	case 12:
		m := map[int]int{}
		for _, v := range r.ints() {
			m[v] = r.int()
		}
		w.IntMap(m)
	case 13:
		set := map[string]bool{}
		for n := r.byte() % 4; n > 0; n-- {
			s := r.string()
			set[s] = len(s) != 1
		}
		w.StringSet(set)
	}
}

// checkFold writes the ops that data describes to a Writer in byte mode and
// to a pooled one hashing from the prefix bytes' fingerprint and from a raw
// fingerprint, and compares the running hashes after every op.
func checkFold(t testing.TB, prefix []byte, raw Fingerprint, data []byte) {
	t.Helper()
	var bw Writer
	hw, rw := GetWriter(), GetWriter()
	hw.StartHash(Hash(prefix))
	rw.StartHash(raw)
	br, hr, rr := &opReader{data}, &opReader{data}, &opReader{data}
	for op := 0; ; op++ {
		b := bw.Bytes()
		if got, want := hw.Sum(), HashAfter(Hash(prefix), b); got != want {
			t.Fatalf("after %d ops of %x: folded %v, byte mode %v (bytes %x)", op, data, got, want, b)
		}
		if got, want := uint64(hw.Sum()), stdFNV(append(append([]byte(nil), prefix...), b...)); got != want {
			t.Fatalf("after %d ops of %x: folded %#x, hash/fnv %#x", op, data, got, want)
		}
		if got, want := rw.Sum(), HashAfter(raw, b); got != want {
			t.Fatalf("after %d ops of %x from %v: folded %v, byte mode %v", op, data, raw, got, want)
		}
		if len(br.data) == 0 {
			break
		}
		writeOp(&bw, br)
		writeOp(hw, hr)
		writeOp(rw, rr)
	}
	PutWriter(hw)
	PutWriter(rw)
}

// TestFoldMatchesEncode compares hashing mode with byte mode on random op
// streams from random prefixes, then on each fast path's edge values alone,
// and checks the mode rules: the byte accessors refuse a hashing Writer, Sum
// refuses a byte-mode one, and Reset and the pool return a Writer to byte
// mode.
func TestFoldMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		prefix := make([]byte, rng.Intn(17))
		rng.Read(prefix)
		data := make([]byte, rng.Intn(120))
		rng.Read(data)
		checkFold(t, prefix, Fingerprint(rng.Uint64()), data)
	}
	for i := range foldInts {
		for op := byte(2); op <= 5; op++ { // Uint32, Uint64, Int, Int64
			checkFold(t, nil, Hash(nil), []byte{op, byte(2 * i)})
		}
	}

	var w Writer
	w.StartHash(Hash(nil))
	for name, f := range map[string]func(){
		"Bytes": func() { w.Bytes() }, "Len": func() { w.Len() }, "Clone": func() { w.Clone() },
	} {
		if !panics(f) {
			t.Errorf("%s on a Writer in hashing mode did not panic", name)
		}
	}
	w.Reset()
	if !panics(func() { w.Sum() }) {
		t.Error("Sum on a Writer in byte mode did not panic")
	}
	w.Int(1)
	if w.Len() != 8 {
		t.Errorf("a Reset Writer wrote %d bytes for an Int, want 8", w.Len())
	}

	for i := 0; i < 4; i++ {
		hw := GetWriter()
		hw.StartHash(Hash(nil))
		hw.Int(i)
		PutWriter(hw)
		pw := GetWriter()
		pw.Int(i)
		if pw.Len() != 8 {
			t.Fatalf("a pooled Writer wrote %d bytes for an Int, want 8", pw.Len())
		}
		PutWriter(pw)
	}
}

func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// FuzzFoldMatchesEncode compares hashing mode with byte mode on the op
// stream the fuzzed bytes describe, after a prefix of their first few bytes.
func FuzzFoldMatchesEncode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 4, 0, 4, 2, 2, 4, 6, 3, 8, 5, 40})
	f.Add([]byte{2, 7, 'h', 'e', 'l', 'l', 'o', 9, 3, 1, 5, 2, 11, 12, 4, 2, 4, 6, 8})
	f.Add([]byte{5, 6, 6, 6, 10, 13, 3, 2, 'h', 'i', 1, 'z', 0, 11, 3, 9, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		n := 0
		if len(data) > 0 {
			n = int(data[0]) % 9
		}
		if n > len(data) {
			n = len(data)
		}
		checkFold(t, data[:n], Hash(data), data[n:])
	})
}
