package core

import (
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"lmc/internal/codec"
)

// TestPredHasNoPointers holds the predecessor edge to its layout: the largest
// thing a run stores, so nothing in it for the collector to trace — no
// pointer, interface, slice, map, string, channel or func, at any depth —
// and at most 32 bytes.
func TestPredHasNoPointers(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Interface, reflect.Slice,
			reflect.Map, reflect.String, reflect.Chan, reflect.Func:
			t.Errorf("%s is a %v", path, typ.Kind())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		}
	}
	walk("pred", reflect.TypeOf(pred{}))
	if size := unsafe.Sizeof(pred{}); size > 32 {
		t.Errorf("pred is %d bytes, want at most 32", size)
	}
}

// TestKeepSpans: an edge that generated a list the pool already holds shares
// its span, a different list of the same length or a prefix gets its own,
// and an edge whose event generated more messages than a span can count
// panics instead of keeping a truncated list, leaving the pool as it was.
func TestKeepSpans(t *testing.T) {
	sp := newSpace()
	var a, b, c, d, empty pred
	sp.keep(&a, []codec.Fingerprint{1, 2})
	sp.keep(&b, []codec.Fingerprint{1, 2})
	sp.keep(&c, []codec.Fingerprint{1, 3})
	sp.keep(&d, []codec.Fingerprint{1})
	sp.keep(&empty, nil)
	if a.genOff != b.genOff || len(sp.gen) != 5 || c.genOff == a.genOff || d.genOff == a.genOff || empty.genN != 0 {
		t.Fatalf("spans %+v %+v %+v %+v over pool %v", a, b, c, d, sp.gen)
	}
	for _, x := range []struct {
		p    *pred
		want []codec.Fingerprint
	}{{&a, []codec.Fingerprint{1, 2}}, {&b, []codec.Fingerprint{1, 2}}, {&c, []codec.Fingerprint{1, 3}},
		{&d, []codec.Fingerprint{1}}, {&empty, nil}} {
		if got := sp.generated(x.p); !slices.Equal(got, x.want) {
			t.Fatalf("span %+v reads %v, want %v", *x.p, got, x.want)
		}
	}

	var p pred
	sp.keep(&p, make([]codec.Fingerprint, 1<<16-1))
	pool := len(sp.gen)
	if int(p.genN) != 1<<16-1 || len(sp.generated(&p)) != 1<<16-1 {
		t.Fatalf("a span of %d fingerprints kept as %d", 1<<16-1, p.genN)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("an edge generating 65,536 messages was kept")
		}
		if len(sp.gen) != pool {
			t.Fatalf("the refused edge left %d fingerprints in the pool", len(sp.gen)-pool)
		}
	}()
	sp.keep(&p, make([]codec.Fingerprint, 1<<16))
}
