package shard

import (
	"bytes"
	"reflect"
	"testing"

	"lmc/internal/codec"
	"lmc/internal/core"
)

// FuzzShardFrameRoundTrip throws arbitrary bytes at every decoder a worker
// or coordinator runs on peer input: the frame layer itself, then each
// frame-body decoder. Decoders must never panic or over-allocate on hostile
// input, and whatever they do accept must survive a re-encode/re-decode
// round trip unchanged — the canonical-encoding contract the digest
// comparison depends on.
func FuzzShardFrameRoundTrip(f *testing.F) {
	// Seed with well-formed frames of each body type so the fuzzer starts
	// from the accepting paths, not just the reject paths.
	w := codec.GetWriter()
	hello{Version: Version, Spec: "bench:paxos", Idx: 1, Count: 4,
		DupLimit: 2, LocalBound: 3, MaxPathDepth: 64}.encode(w)
	f.Add(append([]byte(nil), w.Bytes()...))
	w.Reset()
	core.EncodeDeliveryRecords(w, []core.DeliveryRecord{
		{Entry: 3, Parent: 0xdead, Succ: 0xbeef, Emitted: []codec.Fingerprint{1, 2}},
		{Entry: 0, Parent: 7, Rejected: true},
	})
	f.Add(append([]byte(nil), w.Bytes()...))
	w.Reset()
	core.EncodeActionRecords(w, []core.ActionRecord{
		{Node: 2, Parent: 0xdead, Action: 1, Succ: 0xbeef, Emitted: []codec.Fingerprint{3}},
		{Node: 0, Parent: 7, Action: 0, Rejected: true},
	})
	f.Add(append([]byte(nil), w.Bytes()...))
	w.Reset()
	encodeFrameRecords(w, 3, true, goldenBatch)
	f.Add(append([]byte(nil), w.Bytes()...))
	w.Reset()
	encodeFrameDigest(w, 9, core.ShardDigest{NetLen: 4, Net: 42, States: 17, Spaces: 99})
	f.Add(append([]byte(nil), w.Bytes()...))
	codec.PutWriter(w)
	f.Add(hostileEmittedRecords())

	f.Fuzz(func(t *testing.T, data []byte) {
		// Frame layer: a written frame must read back byte-identical, and
		// raw bytes fed to ReadFrame must error or yield a bounded payload.
		var buf bytes.Buffer
		if err := codec.WriteFrame(&buf, data); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
		back, err := codec.ReadFrame(&buf, 0)
		if err != nil {
			t.Fatalf("ReadFrame after WriteFrame: %v", err)
		}
		if !bytes.Equal(back, data) {
			t.Fatal("frame payload mutated in transit")
		}
		if p, err := codec.ReadFrame(bytes.NewReader(data), 1<<20); err == nil && len(p) > 1<<20 {
			t.Fatalf("ReadFrame returned %d bytes past its max", len(p))
		}

		// Body decoders on raw bytes: must not panic; on clean decode the
		// value must round-trip canonically.
		r := codec.NewReader(data)
		h := decodeHello(r)
		if r.Err() == nil {
			w := codec.GetWriter()
			h.encode(w)
			if h2 := decodeHello(codec.NewReader(w.Bytes())); h2 != h {
				t.Fatalf("hello round trip diverged: %+v vs %+v", h, h2)
			}
			codec.PutWriter(w)
		}

		r = codec.NewReader(data)
		recs := core.DecodeDeliveryRecords(r)
		if r.Err() == nil {
			w := codec.GetWriter()
			core.EncodeDeliveryRecords(w, recs)
			recs2 := core.DecodeDeliveryRecords(codec.NewReader(w.Bytes()))
			if len(recs) != 0 && !reflect.DeepEqual(recs, recs2) {
				t.Fatalf("records round trip diverged: %+v vs %+v", recs, recs2)
			}
			codec.PutWriter(w)
		}

		r = codec.NewReader(data)
		acts := core.DecodeActionRecords(r)
		if r.Err() == nil {
			w := codec.GetWriter()
			core.EncodeActionRecords(w, acts)
			acts2 := core.DecodeActionRecords(codec.NewReader(w.Bytes()))
			if len(acts) != 0 && !reflect.DeepEqual(acts, acts2) {
				t.Fatalf("action records round trip diverged: %+v vs %+v", acts, acts2)
			}
			codec.PutWriter(w)
		}

		// A whole RECORDS body: the two kinds back to back, so a decoder
		// that stopped early without an error would misparse its successor.
		r = codec.NewReader(data)
		rround, rprog, rb := decodeFrameRecords(r)
		if r.Err() == nil {
			w := codec.GetWriter()
			encodeFrameRecords(w, rround, rprog, rb)
			r2 := codec.NewReader(w.Bytes())
			round2, prog2, rb2 := decodeFrameRecords(r2)
			if r2.Err() != nil || round2 != rround || prog2 != rprog || !reflect.DeepEqual(rb, rb2) {
				t.Fatalf("records frame round trip diverged: %+v vs %+v (%v)", rb, rb2, r2.Err())
			}
			codec.PutWriter(w)
		}

		r = codec.NewReader(data)
		round, d := decodeFrameDigest(r)
		if r.Err() == nil {
			w := codec.GetWriter()
			encodeFrameDigest(w, round, d)
			r2, d2 := decodeFrameDigest(codec.NewReader(w.Bytes()))
			if r2 != round || d2 != d {
				t.Fatalf("digest round trip diverged")
			}
			codec.PutWriter(w)
		}
	})
}
