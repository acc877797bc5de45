package store

import (
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"time"

	"lmc/internal/codec"
	"lmc/internal/core"
	"lmc/internal/stats"
)

// File format: a header frame, then segment frames, every frame written with
// codec.WriteFrame (length prefix + FNV-1a checksum — the same framing the
// shard wire protocol trusts). A segment payload is one kind byte followed
// by the kind's body in canonical codec encoding.
const (
	storeMagic   = "LMCSTORE"
	storeVersion = 1

	// maxSegment bounds a single segment frame; a round of delivery records
	// stays far below it, and a corrupted length prefix is rejected before
	// allocation.
	maxSegment = 1 << 26 // 64 MiB

	segRun    = byte(1) // run created: RunMeta
	segRound  = byte(2) // one RoundCheckpoint, tagged with its run ID
	segStatus = byte(3) // terminal status: done or invalidated

	statusDone    = byte(1)
	statusInvalid = byte(2)
)

func encodeRunMeta(w *codec.Writer, m RunMeta) {
	w.String(m.ID)
	w.String(m.Spec)
	w.Uint64(m.CodeHash)
	w.Uint64(m.OptionsSig)
	w.Int64(m.Created.Unix())
}

func decodeRunMeta(r *codec.Reader) RunMeta {
	return RunMeta{
		ID:         r.String(),
		Spec:       r.String(),
		CodeHash:   r.Uint64(),
		OptionsSig: r.Uint64(),
		Created:    time.Unix(r.Int64(), 0),
	}
}

// encodeCheckpoint writes one RoundCheckpoint body (the run-ID tag is the
// caller's): the records, fingerprint lists and digest in core's canonical
// record encoding — the one the shard wire frames too — plus the counter
// snapshot. decodeCheckpoint is its inverse; the pair is the fuzz target
// FuzzCheckpointRoundTrip.
func encodeCheckpoint(w *codec.Writer, cp core.RoundCheckpoint) {
	w.Int(cp.Pass)
	w.Int(cp.Round)
	w.Int(cp.LocalBound)
	core.EncodeDeliveryRecords(w, cp.Records)
	w.Int(len(cp.NewStates))
	for _, fps := range cp.NewStates {
		core.EncodeFingerprints(w, fps)
	}
	cp.Digest.Encode(w)
	encodeCounters(w, cp.Counters)
}

func decodeCheckpoint(r *codec.Reader) core.RoundCheckpoint {
	cp := core.RoundCheckpoint{
		Pass:       r.Int(),
		Round:      r.Int(),
		LocalBound: r.Int(),
		Records:    core.DecodeDeliveryRecords(r),
	}
	if n := r.Count(8); n > 0 {
		cp.NewStates = make([][]codec.Fingerprint, 0, n)
		for i := 0; i < n && r.Err() == nil; i++ {
			cp.NewStates = append(cp.NewStates, core.DecodeFingerprints(r))
		}
	}
	cp.Digest = core.DecodeShardDigest(r)
	cp.Counters = decodeCounters(r)
	return cp
}

// Counters are encoded field by field in declaration order. The trailing
// field count written first lets decode reject a snapshot from a binary
// whose Counters struct grew or shrank (the store version would normally
// bump with it, but the guard makes drift loud rather than silent).
const countersFields = 23

func encodeCounters(w *codec.Writer, c stats.Counters) {
	w.Int(countersFields)
	w.Int(c.Transitions)
	w.Int(c.NodeStates)
	w.Int(c.GlobalStates)
	w.Int(c.SystemStates)
	w.Int(c.InvariantChecks)
	w.Int(c.PreliminaryViolations)
	w.Int(c.SoundnessCalls)
	w.Int(c.SequencesChecked)
	w.Int64(int64(c.SoundnessTime))
	w.Int64(int64(c.SystemStateTime))
	w.Int64(int64(c.ShardWaitTime))
	w.Int(c.ConfirmedBugs)
	w.Int(c.CoverIndexHits)
	w.Int(c.CoverIndexMisses)
	w.Int(c.WitnessSkips)
	w.Int(c.SymmetrySkips)
	w.Int(c.OrbitChecks)
	w.Int(c.PORPathsDeduped)
	w.Int(c.PORDetached)
	w.Int(c.Rejections)
	w.Int(c.DuplicatesDropped)
	w.Int(c.MaxDepth)
	w.Int64(int64(c.Elapsed))
}

func decodeCounters(r *codec.Reader) stats.Counters {
	if n := r.Int(); n != countersFields {
		r.Fail(fmt.Errorf("store: counter snapshot has %d fields, this binary's has %d", n, countersFields))
		return stats.Counters{}
	}
	return stats.Counters{
		Transitions:           r.Int(),
		NodeStates:            r.Int(),
		GlobalStates:          r.Int(),
		SystemStates:          r.Int(),
		InvariantChecks:       r.Int(),
		PreliminaryViolations: r.Int(),
		SoundnessCalls:        r.Int(),
		SequencesChecked:      r.Int(),
		SoundnessTime:         time.Duration(r.Int64()),
		SystemStateTime:       time.Duration(r.Int64()),
		ShardWaitTime:         time.Duration(r.Int64()),
		ConfirmedBugs:         r.Int(),
		CoverIndexHits:        r.Int(),
		CoverIndexMisses:      r.Int(),
		WitnessSkips:          r.Int(),
		SymmetrySkips:         r.Int(),
		OrbitChecks:           r.Int(),
		PORPathsDeduped:       r.Int(),
		PORDetached:           r.Int(),
		Rejections:            r.Int(),
		DuplicatesDropped:     r.Int(),
		MaxDepth:              r.Int(),
		Elapsed:               time.Duration(r.Int64()),
	}
}

// CodeHash fingerprints the running checker binary (FNV-1a over its bytes).
// A checkpoint written by one binary must not prime a walk in another: a
// changed handler executes differently, and although the engine's digest
// check would catch most divergence after a round, the hash refuses the
// resume up front. Returns 0 when the executable cannot be read (resume is
// then refused by mismatch against any stored non-zero hash).
func CodeHash() uint64 {
	path, err := os.Executable()
	if err != nil {
		return 0
	}
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	h := fnv.New64a()
	if _, err := io.Copy(h, f); err != nil {
		return 0
	}
	return h.Sum64()
}

// OptionsSig hashes the exploration-shaping parts of a job spec (workload
// name, checker kind, bounds, reductions — whatever the caller decides
// shapes the state space). Worker count and shard count must NOT be
// included: exploration is bit-for-bit identical across them, so their
// checkpoints are interchangeable. Parts are length-prefixed, so
// ("ab","c") and ("a","bc") hash differently.
func OptionsSig(parts ...string) uint64 {
	h := fnv.New64a()
	var n [8]byte
	for _, p := range parts {
		for i, l := 0, len(p); i < 8; i++ {
			n[i] = byte(l >> (8 * (7 - i)))
		}
		h.Write(n[:])
		io.WriteString(h, p)
	}
	return h.Sum64()
}
