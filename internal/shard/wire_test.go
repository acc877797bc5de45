package shard

import (
	"encoding/hex"
	"reflect"
	"testing"

	"lmc/internal/codec"
	"lmc/internal/core"
)

func TestHelloRoundTrip(t *testing.T) {
	in := hello{
		Version: Version, Spec: "bench:paxos", Idx: 2, Count: 4,
		DupLimit: 1, LocalBound: 3, MaxPathDepth: 9,
		MaxTransitions: 500, Batch: 8,
	}
	w := codec.GetWriter()
	defer codec.PutWriter(w)
	in.encode(w)
	r := codec.NewReader(w.Bytes())
	out := decodeHello(r)
	if r.Err() != nil {
		t.Fatalf("decode error: %v", r.Err())
	}
	if out != in {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
	}
}

func TestRecordsRoundTrip(t *testing.T) {
	in := []core.DeliveryRecord{
		{Entry: 0, Parent: 0xdead, Rejected: true},
		{Entry: 3, Parent: 0xbeef, Succ: 0xf00d,
			Emitted: []codec.Fingerprint{1, 2, 3}},
		{Entry: 7, Parent: 42, Succ: 43}, // no emissions
	}
	w := codec.GetWriter()
	defer codec.PutWriter(w)
	core.EncodeDeliveryRecords(w, in)
	r := codec.NewReader(w.Bytes())
	out := core.DecodeDeliveryRecords(r)
	if r.Err() != nil {
		t.Fatalf("decode error: %v", r.Err())
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
	}
}

func TestActionRecordsRoundTrip(t *testing.T) {
	in := []core.ActionRecord{
		{Node: 0, Parent: 0xdead, Action: 2, Rejected: true},
		{Node: 3, Parent: 0xbeef, Action: 0, Succ: 0xf00d,
			Emitted: []codec.Fingerprint{4, 5}},
		{Node: 1, Parent: 42, Action: 1, Succ: 43}, // no emissions
	}
	w := codec.GetWriter()
	defer codec.PutWriter(w)
	core.EncodeActionRecords(w, in)
	r := codec.NewReader(w.Bytes())
	out := core.DecodeActionRecords(r)
	if r.Err() != nil {
		t.Fatalf("decode error: %v", r.Err())
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
	}
}

func TestRoundBatchRoundTrip(t *testing.T) {
	in := core.RoundBatch{
		Acts: []core.ActionRecord{{Node: 1, Parent: 2, Action: 0, Succ: 3}},
		Dels: []core.DeliveryRecord{{Entry: 4, Parent: 5, Succ: 6}},
	}
	w := codec.GetWriter()
	defer codec.PutWriter(w)
	encodeFrameRecords(w, 7, true, in)
	r := codec.NewReader(w.Bytes())
	round, progress, out := decodeFrameRecords(r)
	if r.Err() != nil {
		t.Fatalf("decode error: %v", r.Err())
	}
	if round != 7 || !progress || !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch: round=%d progress=%v batch=%+v", round, progress, out)
	}
}

func TestDecodeRecordsMalformed(t *testing.T) {
	// A hostile record count far beyond the remaining bytes must not
	// allocate or panic; it reports no records and a sticky reader error.
	w := codec.GetWriter()
	encodeInt := func(v int) {
		w.Reset()
		w.Int(v)
	}
	encodeInt(1 << 40)
	r := codec.NewReader(w.Bytes())
	if got := core.DecodeDeliveryRecords(r); got != nil {
		t.Fatalf("hostile count decoded to %d records", len(got))
	}
	codec.PutWriter(w)

	// A truncated but plausible batch errors instead of fabricating data.
	w2 := codec.GetWriter()
	defer codec.PutWriter(w2)
	core.EncodeDeliveryRecords(w2, []core.DeliveryRecord{{Entry: 1, Parent: 2, Succ: 3}})
	whole := w2.Bytes()
	for cut := 0; cut < len(whole); cut++ {
		r := codec.NewReader(whole[:cut])
		_ = core.DecodeDeliveryRecords(r)
		if r.Err() == nil {
			t.Fatalf("truncation at %d/%d bytes decoded cleanly", cut, len(whole))
		}
	}

	// An emitted-count beyond the remaining bytes must stick an error, not
	// end the batch early with the trailing bytes left for the next decoder.
	r = codec.NewReader(hostileEmittedRecords())
	if _, _, b := decodeFrameRecords(r); r.Err() == nil {
		t.Fatalf("hostile emitted-count decoded cleanly to %+v", b)
	}
}

// hostileEmittedRecords is a RECORDS body — round 3, no action records, one
// delivery record {5, 42, accepted, 43} — whose emitted-count is 1<<40.
func hostileEmittedRecords() []byte {
	var w codec.Writer
	w.Int(3)
	w.Bool(true)
	w.Int(0)
	w.Int(1)
	w.Int(5)
	w.Uint64(42)
	w.Bool(false)
	w.Uint64(43)
	w.Int(1 << 40)
	return append([]byte(nil), w.Bytes()...)
}

func TestDecodeActionRecordsMalformed(t *testing.T) {
	w := codec.GetWriter()
	w.Int(1 << 40)
	r := codec.NewReader(w.Bytes())
	if got := core.DecodeActionRecords(r); got != nil {
		t.Fatalf("hostile count decoded to %d records", len(got))
	}
	codec.PutWriter(w)

	w2 := codec.GetWriter()
	defer codec.PutWriter(w2)
	core.EncodeActionRecords(w2, []core.ActionRecord{{Node: 1, Parent: 2, Action: 0, Succ: 3}})
	whole := w2.Bytes()
	for cut := 0; cut < len(whole); cut++ {
		r := codec.NewReader(whole[:cut])
		_ = core.DecodeActionRecords(r)
		if r.Err() == nil {
			t.Fatalf("truncation at %d/%d bytes decoded cleanly", cut, len(whole))
		}
	}

	// One accepted action record {node 1, parent 2, action 0, succ 3} with
	// an emitted-count of 1<<40.
	var w3 codec.Writer
	w3.Int(1)
	w3.Int(1)
	w3.Uint64(2)
	w3.Int(0)
	w3.Bool(false)
	w3.Uint64(3)
	w3.Int(1 << 40)
	r = codec.NewReader(w3.Bytes())
	if got := core.DecodeActionRecords(r); r.Err() == nil {
		t.Fatalf("hostile emitted-count decoded cleanly to %+v", got)
	}
}

func TestDigestRoundTrip(t *testing.T) {
	in := core.ShardDigest{NetLen: 12, Net: 0xabc, States: 99, Spaces: 0xdef}
	w := codec.GetWriter()
	defer codec.PutWriter(w)
	encodeFrameDigest(w, 5, in)
	r := codec.NewReader(w.Bytes())
	round, out := decodeFrameDigest(r)
	if r.Err() != nil {
		t.Fatalf("decode error: %v", r.Err())
	}
	if round != 5 || out != in {
		t.Fatalf("round trip mismatch: round=%d digest=%+v", round, out)
	}
}

// goldenBatch and the two hex strings below were produced by the v2 codec
// (internal/shard/wire.go before the record codec moved to core): the RECORDS
// and DIGEST bodies are pinned byte for byte across the move. Versions 3
// and 4 changed only HELLO; version 5 dropped the anchor-report list that
// ended the RECORDS body (the pinned hex lost its trailing 148 digits, the
// action and delivery bytes before them are unchanged).
var goldenBatch = core.RoundBatch{
	Acts: []core.ActionRecord{
		{Node: 1, Parent: 0x1111, Action: 2, Succ: 0x2222, Emitted: []codec.Fingerprint{0xa1, 0xa2}},
		{Node: 0, Parent: 0x3333, Action: 0, Rejected: true},
	},
	Dels: []core.DeliveryRecord{
		{Entry: 4, Parent: 0x4444, Succ: 0x5555, Emitted: []codec.Fingerprint{0xb1}},
		{Entry: 7, Parent: 0x6666, Rejected: true},
		{Entry: 9, Parent: 0x7777, Succ: 0x8888},
	},
}

const (
	goldenRecordsHex = "0000000000000003010000000000000002000000000000000100000000000011110000000000000002000000000000002222000000000000000200000000000000a100000000000000a200000000000000000000000000003333000000000000000001000000000000000300000000000000040000000000004444000000000000005555000000000000000100000000000000b10000000000000007000000000000666601000000000000000900000000000077770000000000000088880000000000000000"
	goldenDigestHex  = "0000000000000008000000000000000c0000000000000abc00000000000000630000000000000def"
)

func TestGoldenFrameBodies(t *testing.T) {
	var w codec.Writer
	encodeFrameRecords(&w, 3, true, goldenBatch)
	if got := hex.EncodeToString(w.Bytes()); got != goldenRecordsHex {
		t.Fatalf("RECORDS body drifted from the pinned encoding:\n got %s\nwant %s", got, goldenRecordsHex)
	}
	raw, _ := hex.DecodeString(goldenRecordsHex)
	r := codec.NewReader(raw)
	round, progress, b := decodeFrameRecords(r)
	if r.Err() != nil || r.Remaining() != 0 || round != 3 || !progress || !reflect.DeepEqual(b, goldenBatch) {
		t.Fatalf("pinned RECORDS body decoded to round=%d progress=%v err=%v batch=%+v", round, progress, r.Err(), b)
	}

	w.Reset()
	d := core.ShardDigest{NetLen: 12, Net: 0xabc, States: 99, Spaces: 0xdef}
	encodeFrameDigest(&w, 8, d)
	if got := hex.EncodeToString(w.Bytes()); got != goldenDigestHex {
		t.Fatalf("DIGEST body drifted from the pinned encoding:\n got %s\nwant %s", got, goldenDigestHex)
	}
	raw, _ = hex.DecodeString(goldenDigestHex)
	r = codec.NewReader(raw)
	if round, got := decodeFrameDigest(r); r.Err() != nil || round != 8 || got != d {
		t.Fatalf("pinned DIGEST body decoded to round=%d digest=%+v err=%v", round, got, r.Err())
	}
}
