package codec

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

// TestWriterPrimitives checks the wire layout of each primitive.
func TestWriterPrimitives(t *testing.T) {
	var w Writer
	w.Bool(true)
	w.Bool(false)
	w.Byte(0xAB)
	w.Uint32(0x01020304)
	w.Uint64(0x0102030405060708)
	got := w.Bytes()
	want := []byte{1, 0, 0xAB, 1, 2, 3, 4, 1, 2, 3, 4, 5, 6, 7, 8}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("layout mismatch:\n got %v\nwant %v", got, want)
	}
}

// TestWriterReset checks buffer reuse.
func TestWriterReset(t *testing.T) {
	w := NewWriter(16)
	w.String("hello")
	if w.Len() == 0 {
		t.Fatal("empty after write")
	}
	w.Reset()
	if w.Len() != 0 {
		t.Fatalf("Len after Reset = %d", w.Len())
	}
}

// TestWriterClone checks that Clone survives reuse of the writer.
func TestWriterClone(t *testing.T) {
	var w Writer
	w.String("abc")
	c := w.Clone()
	w.Reset()
	w.String("xyz")
	var w2 Writer
	w2.String("abc")
	if !reflect.DeepEqual(c, w2.Bytes()) {
		t.Fatalf("clone changed under reuse")
	}
}

// TestIntEncodingIsSigned checks two's-complement round-tripping of
// negative values through the fixed-width encoding.
func TestIntEncodingIsSigned(t *testing.T) {
	var a, b Writer
	a.Int(-1)
	b.Int(1)
	if reflect.DeepEqual(a.Bytes(), b.Bytes()) {
		t.Fatal("-1 and 1 encode identically")
	}
}

// TestFloatNaNCanonical checks that all NaN payloads encode identically.
func TestFloatNaNCanonical(t *testing.T) {
	var a, b Writer
	a.Float64(math.NaN())
	b.Float64(math.Float64frombits(0x7ff8dead00000001)) // another NaN payload
	if !reflect.DeepEqual(a.Bytes(), b.Bytes()) {
		t.Fatal("NaNs encode differently")
	}
}

// TestIntSetCanonical checks that map iteration order never leaks into the
// encoding of sets.
func TestIntSetCanonical(t *testing.T) {
	f := func(keys []int) bool {
		m1 := map[int]bool{}
		m2 := map[int]bool{}
		for _, k := range keys {
			m1[k] = true
		}
		// Insert in reverse order into the second map.
		for i := len(keys) - 1; i >= 0; i-- {
			m2[keys[i]] = true
		}
		var w1, w2 Writer
		w1.IntSet(m1)
		w2.IntSet(m2)
		return reflect.DeepEqual(w1.Bytes(), w2.Bytes())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestIntSetExcludesFalse checks that false-valued keys are not part of the
// canonical set encoding.
func TestIntSetExcludesFalse(t *testing.T) {
	var a, b Writer
	a.IntSet(map[int]bool{1: true, 2: false})
	b.IntSet(map[int]bool{1: true})
	if !reflect.DeepEqual(a.Bytes(), b.Bytes()) {
		t.Fatal("false entries leak into the encoding")
	}
}

// TestIntMapCanonical checks deterministic map encoding.
func TestIntMapCanonical(t *testing.T) {
	f := func(keys []int, vals []int) bool {
		m1 := map[int]int{}
		m2 := map[int]int{}
		for i, k := range keys {
			v := 0
			if i < len(vals) {
				v = vals[i]
			}
			m1[k] = v
		}
		for i := len(keys) - 1; i >= 0; i-- {
			v := 0
			if i < len(vals) {
				v = vals[i]
			}
			m2[keys[i]] = v
		}
		var w1, w2 Writer
		w1.IntMap(m1)
		w2.IntMap(m2)
		return reflect.DeepEqual(w1.Bytes(), w2.Bytes())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSortedIntsDoesNotMutate checks the no-mutation contract.
func TestSortedIntsDoesNotMutate(t *testing.T) {
	in := []int{3, 1, 2}
	var w Writer
	w.SortedInts(in)
	if !reflect.DeepEqual(in, []int{3, 1, 2}) {
		t.Fatalf("argument mutated: %v", in)
	}
}

// TestStringSetCanonical checks string-set encodings sort keys.
func TestStringSetCanonical(t *testing.T) {
	var a, b Writer
	a.StringSet(map[string]bool{"b": true, "a": true})
	b.StringSet(map[string]bool{"a": true, "b": true})
	if !reflect.DeepEqual(a.Bytes(), b.Bytes()) {
		t.Fatal("string set not canonical")
	}
}

// TestHashDiffers sanity-checks the fingerprint on small perturbations.
func TestHashDiffers(t *testing.T) {
	if Hash([]byte{1}) == Hash([]byte{2}) {
		t.Fatal("FNV collision on trivial input (implementation broken)")
	}
	if Hash(nil) != Hash([]byte{}) {
		t.Fatal("nil and empty hash differently")
	}
}

// TestCombineOrderSensitive checks Combine's order sensitivity.
func TestCombineOrderSensitive(t *testing.T) {
	a, b := Fingerprint(1), Fingerprint(2)
	if Combine(a, b) == Combine(b, a) {
		t.Fatal("Combine is order-insensitive")
	}
}

// fpEncoder is a trivial Encoder for HashOf tests.
type fpEncoder int

func (e fpEncoder) Encode(w *Writer) { w.Int(int(e)) }

// TestHashOf checks HashOf equals hashing the canonical encoding.
func TestHashOf(t *testing.T) {
	var w Writer
	fpEncoder(42).Encode(&w)
	if HashOf(fpEncoder(42)) != Hash(w.Bytes()) {
		t.Fatal("HashOf disagrees with manual encoding")
	}
	if HashOf(fpEncoder(42)) == HashOf(fpEncoder(43)) {
		t.Fatal("distinct values collide")
	}
}
