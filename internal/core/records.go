package core

import (
	"lmc/internal/codec"
	"lmc/internal/stats"
)

// The round-log vocabulary: the fingerprint-only records that describe one
// exploration round, and their one canonical encoding. internal/shard frames
// these bodies on its wire and internal/store frames them in its segments;
// neither owns a codec of its own. Every decoder validates element counts
// against the bytes actually left (codec.Reader.Count), so hostile or
// truncated input sticks an error on the reader — checked once by the caller
// — instead of over-allocating or passing a partial decode for a clean one.

// DeliveryRecord is one executed delivery pair, identified by the
// network-entry index and the parent state's fingerprint (unique per
// round: a node's visited states have distinct fingerprints and an entry
// has a single destination).
type DeliveryRecord struct {
	Entry    int
	Parent   codec.Fingerprint
	Rejected bool // the handler rejected the message (nil successor)
	// Succ is the successor state's fingerprint; Emitted the fingerprints
	// of the messages the handler emitted, in emission order. Both are
	// meaningless when Rejected.
	Succ    codec.Fingerprint
	Emitted []codec.Fingerprint
}

// ActionRecord is one executed internal action: the acting node, the
// parent state's fingerprint, and the index of the action in the
// machine's Actions enumeration for that state (the enumeration is
// deterministic, so the index identifies the action on every replica).
type ActionRecord struct {
	Node     int
	Parent   codec.Fingerprint
	Action   int
	Rejected bool // the handler rejected the action (nil successor)
	Succ     codec.Fingerprint
	Emitted  []codec.Fingerprint
}

// outcome is what one transition step did, the part delivery and action
// records share: the handler rejected the event, or it produced the successor
// with fingerprint Succ and emitted the messages fingerprinted in Emitted, in
// emission order (both meaningless when Rejected).
type outcome struct {
	Rejected bool
	Succ     codec.Fingerprint
	Emitted  []codec.Fingerprint
}

// ShardDigest summarizes a replica after a round: network length and
// order-sensitive content fingerprint, total visited node states, and a
// fingerprint over every node's visited list. Replicas that ran the same
// rounds agree on all four.
type ShardDigest struct {
	NetLen int
	Net    codec.Fingerprint
	States int
	Spaces codec.Fingerprint
}

// RoundBatch is one replica's records for one round.
type RoundBatch struct {
	Acts []ActionRecord
	Dels []DeliveryRecord
}

// RoundCheckpoint is one completed exploration round as handed to a
// CheckpointSink at the round's merge barrier, and as returned by a
// ResumeSource when a later run re-runs the same round.
type RoundCheckpoint struct {
	// Pass and Round locate the round (both 1-based); LocalBound is the
	// pass's local-event bound.
	Pass, Round, LocalBound int
	// Records and NewStates are retired: the engine leaves both empty and
	// reads neither (a stored record never spared a resumed run a handler
	// call). They keep the v1 segment layout and go at the next
	// store-format bump, like stats.Counters.WitnessSkips.
	Records   []DeliveryRecord
	NewStates [][]codec.Fingerprint
	// Digest summarizes the replica after the round; a resumed run verifies
	// its own post-round digest against it. It is the one field resume reads.
	Digest ShardDigest
	// Counters is the cumulative counter snapshot at the barrier, for whoever
	// inspects a store (resume re-derives its own); durations as measured.
	Counters stats.Counters
}

// Minimum encoded sizes of the record kinds, the Count guards' element size.
const (
	deliveryRecordMin = 17 // entry + parent + rejected flag
	actionRecordMin   = 25 // node + parent + action + rejected flag
)

// EncodeFingerprints writes a counted fingerprint list.
func EncodeFingerprints(w *codec.Writer, fps []codec.Fingerprint) {
	w.Int(len(fps))
	for _, fp := range fps {
		w.Uint64(uint64(fp))
	}
}

// DecodeFingerprints reads a counted fingerprint list (nil when empty).
func DecodeFingerprints(r *codec.Reader) []codec.Fingerprint {
	n := r.Count(8)
	if n == 0 {
		return nil
	}
	fps := make([]codec.Fingerprint, n)
	for i := range fps {
		fps[i] = codec.Fingerprint(r.Uint64())
	}
	return fps
}

// encodeOutcome writes the part delivery and action records share: the
// rejected flag, then — for an accepted execution — the successor and the
// emitted fingerprints.
func encodeOutcome(w *codec.Writer, rejected bool, succ codec.Fingerprint, emitted []codec.Fingerprint) {
	w.Bool(rejected)
	if !rejected {
		w.Uint64(uint64(succ))
		EncodeFingerprints(w, emitted)
	}
}

func decodeOutcome(r *codec.Reader) (rejected bool, succ codec.Fingerprint, emitted []codec.Fingerprint) {
	if rejected = r.Bool(); !rejected {
		succ = codec.Fingerprint(r.Uint64())
		emitted = DecodeFingerprints(r)
	}
	return rejected, succ, emitted
}

// EncodeDeliveryRecords writes a counted delivery-record batch.
func EncodeDeliveryRecords(w *codec.Writer, recs []DeliveryRecord) {
	w.Int(len(recs))
	for i := range recs {
		rec := &recs[i]
		w.Int(rec.Entry)
		w.Uint64(uint64(rec.Parent))
		encodeOutcome(w, rec.Rejected, rec.Succ, rec.Emitted)
	}
}

// DecodeDeliveryRecords reads a delivery-record batch (nil when empty).
func DecodeDeliveryRecords(r *codec.Reader) []DeliveryRecord {
	n := r.Count(deliveryRecordMin)
	if n == 0 {
		return nil
	}
	recs := make([]DeliveryRecord, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		rec := DeliveryRecord{Entry: r.Int(), Parent: codec.Fingerprint(r.Uint64())}
		rec.Rejected, rec.Succ, rec.Emitted = decodeOutcome(r)
		recs = append(recs, rec)
	}
	return recs
}

// EncodeActionRecords writes a counted action-record batch.
func EncodeActionRecords(w *codec.Writer, recs []ActionRecord) {
	w.Int(len(recs))
	for i := range recs {
		rec := &recs[i]
		w.Int(rec.Node)
		w.Uint64(uint64(rec.Parent))
		w.Int(rec.Action)
		encodeOutcome(w, rec.Rejected, rec.Succ, rec.Emitted)
	}
}

// DecodeActionRecords reads an action-record batch (nil when empty).
func DecodeActionRecords(r *codec.Reader) []ActionRecord {
	n := r.Count(actionRecordMin)
	if n == 0 {
		return nil
	}
	recs := make([]ActionRecord, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		rec := ActionRecord{Node: r.Int(), Parent: codec.Fingerprint(r.Uint64()), Action: r.Int()}
		rec.Rejected, rec.Succ, rec.Emitted = decodeOutcome(r)
		recs = append(recs, rec)
	}
	return recs
}

// Encode writes the batch's two record kinds: actions, then deliveries.
func (b RoundBatch) Encode(w *codec.Writer) {
	EncodeActionRecords(w, b.Acts)
	EncodeDeliveryRecords(w, b.Dels)
}

// DecodeRoundBatch is RoundBatch.Encode's inverse.
func DecodeRoundBatch(r *codec.Reader) RoundBatch {
	return RoundBatch{
		Acts: DecodeActionRecords(r),
		Dels: DecodeDeliveryRecords(r),
	}
}

// Encode writes the digest's four fields.
func (d ShardDigest) Encode(w *codec.Writer) {
	w.Int(d.NetLen)
	w.Uint64(uint64(d.Net))
	w.Int(d.States)
	w.Uint64(uint64(d.Spaces))
}

// DecodeShardDigest is ShardDigest.Encode's inverse.
func DecodeShardDigest(r *codec.Reader) ShardDigest {
	return ShardDigest{
		NetLen: r.Int(),
		Net:    codec.Fingerprint(r.Uint64()),
		States: r.Int(),
		Spaces: codec.Fingerprint(r.Uint64()),
	}
}
