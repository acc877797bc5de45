package shard

import (
	"errors"
	"fmt"

	"lmc/internal/codec"
	"lmc/internal/core"
)

// Version is the wire-protocol version. A worker refuses a HELLO carrying a
// different version, so mixed-build coordinator/worker pairs fail fast at
// the handshake instead of diverging mid-run. Version 5 is the streaming
// protocol — workers run rounds autonomously after PASS, each round's
// action and delivery records travel in one RECORDS frame, and digests are
// exchanged at batch boundaries — without version 4's invariant sharding:
// no anchor reports in RECORDS, no request for them in HELLO, no ack in
// READY.
const Version = 5

// ErrVersionMismatch is the typed refusal a worker returns for a HELLO
// whose protocol version differs from its own; the coordinator sees the
// refusal as an ERROR frame during the handshake and degrades in-process.
var ErrVersionMismatch = errors.New("shard: wire protocol version mismatch")

// frameType is the first payload byte of every frame (the rest is the
// codec-encoded body). Each side always knows which frame types are
// acceptable next — so a type outside the expected set is a protocol
// error, not a dispatch choice.
type frameType byte

const (
	// ftHello (C→W) opens the session: protocol version, workload spec, the
	// worker's shard index/count, the digest batch window, and the
	// exploration-shaping options.
	ftHello frameType = 1 + iota
	// ftReady (W→C) acknowledges a HELLO after the replica is built.
	ftReady
	// ftError (W→C) reports a worker-side failure with a message; the
	// worker exits after sending it.
	ftError
	// ftPass (C→W) announces a fresh exploration pass and its local bound;
	// the worker then streams the pass's rounds autonomously.
	ftPass
	// ftRecords (W→C) carries one round's captured records — action records,
	// then delivery records — plus the round's progress flag.
	ftRecords
	// ftDigest (W→C) carries the worker's replica digest; sent after the
	// last round of every digest batch and at the pass fixpoint.
	ftDigest
	// ftDone (C→W) ends the session cleanly; accepted at every worker
	// receive point.
	ftDone
)

// String names the frame type for protocol errors.
func (t frameType) String() string {
	switch t {
	case ftHello:
		return "HELLO"
	case ftReady:
		return "READY"
	case ftError:
		return "ERROR"
	case ftPass:
		return "PASS"
	case ftRecords:
		return "RECORDS"
	case ftDigest:
		return "DIGEST"
	case ftDone:
		return "DONE"
	default:
		return fmt.Sprintf("frame(%d)", byte(t))
	}
}

// hello is the handshake body. The option fields are the coordinator's RAW
// (unresolved) values: both sides resolve defaults through the same
// core.newChecker path, so shipping them unresolved keeps a single source of
// truth for the defaults.
type hello struct {
	Version int
	Spec    string
	Idx     int // 1..Count-1; shard 0 is the coordinator
	Count   int // total process count, coordinator included

	DupLimit     int
	LocalBound   int
	MaxPathDepth int
	// MaxTransitions travels because it is a replicated stop criterion:
	// charged in the canonical order, it cuts every replica off at the
	// same transition.
	MaxTransitions int

	// Batch is the digest cadence (rounds per digest exchange).
	Batch int
}

func (h hello) encode(w *codec.Writer) {
	w.Int(h.Version)
	w.String(h.Spec)
	w.Int(h.Idx)
	w.Int(h.Count)
	w.Int(h.DupLimit)
	w.Int(h.LocalBound)
	w.Int(h.MaxPathDepth)
	w.Int(h.MaxTransitions)
	w.Int(h.Batch)
}

func decodeHello(r *codec.Reader) hello {
	return hello{
		Version:        r.Int(),
		Spec:           r.String(),
		Idx:            r.Int(),
		Count:          r.Int(),
		DupLimit:       r.Int(),
		LocalBound:     r.Int(),
		MaxPathDepth:   r.Int(),
		MaxTransitions: r.Int(),
		Batch:          r.Int(),
	}
}

// encodeFrameRecords is the RECORDS frame body: round, progress flag, then the
// batch in core's canonical record encoding.
func encodeFrameRecords(w *codec.Writer, round int, progress bool, b core.RoundBatch) {
	w.Int(round)
	w.Bool(progress)
	b.Encode(w)
}

func decodeFrameRecords(r *codec.Reader) (round int, progress bool, b core.RoundBatch) {
	return r.Int(), r.Bool(), core.DecodeRoundBatch(r)
}

// encodeFrameDigest is the DIGEST frame body: round, then the digest.
func encodeFrameDigest(w *codec.Writer, round int, d core.ShardDigest) {
	w.Int(round)
	d.Encode(w)
}

func decodeFrameDigest(r *codec.Reader) (int, core.ShardDigest) {
	return r.Int(), core.DecodeShardDigest(r)
}
