// Package store is the persistent checkpoint store behind the resident
// checking service (internal/service, cmd/lmc serve). One store is one
// append-only file of codec-framed segments, bucketed by run ID: a run's
// metadata (spec, code hash, options signature), its per-round
// RoundCheckpoints — the replica digest and counter snapshot internal/core
// hands a CheckpointSink at every completed round barrier; the v1 layout
// also frames delivery records and explored-fingerprint segments, which the
// engine has retired and leaves empty — and a terminal status. The file is the
// durability log; an Open replays it into memory and truncates at the first
// bad frame, so a process killed mid-append recovers to the last complete
// round. No fsync is issued: the threat model is process death (SIGKILL of
// the daemon), which the page cache survives, not machine crash — a run
// lost to power failure simply re-runs from scratch.
//
// A checkpoint is a digest, not saved work (see internal/core/roundlog.go):
// resuming re-runs exploration and verifies each round's digest against the
// stored one, which makes a resumed run bit-for-bit identical to an
// uninterrupted one or stops it. Stale
// checkpoints — a rebuilt binary, changed options — are caught twice: by
// comparing RunMeta.CodeHash/OptionsSig up front, and by the engine's
// post-round digest check (StopResumeDiverged) as a backstop.
package store

import (
	"errors"
	"fmt"
	"io"
	"maps"
	"os"
	"sync"
	"time"

	"lmc/internal/codec"
	"lmc/internal/core"
)

// RunMeta describes one run bucket in the store.
type RunMeta struct {
	ID   string
	Spec string
	// CodeHash fingerprints the checker binary that wrote the checkpoints
	// (CodeHash()); OptionsSig the exploration-shaping options (OptionsSig).
	// A resume under a different hash must invalidate instead of resuming.
	CodeHash   uint64
	OptionsSig uint64
	Created    time.Time
	// Rounds is the number of distinct (pass, round) checkpoints stored.
	Rounds int
	// Done marks a run whose final result was recorded; Detail carries the
	// caller's result summary (the service stores the JobResult JSON).
	Done   bool
	Detail string
	// Invalid marks a run whose checkpoints must not be resumed (code-hash
	// mismatch, digest divergence); Detail carries the reason.
	Invalid bool
}

// runState keeps a run's rounds decoded, keyed by (pass, round): a checkpoint
// is a digest and a counter snapshot, a few hundred bytes.
type runState struct {
	meta   RunMeta
	rounds map[[2]int]core.RoundCheckpoint
}

// Store is a single-file checkpoint store. All methods are safe for
// concurrent use; writes are serialized under one mutex (the resident
// service runs one job at a time, so the lock is uncontended in practice).
type Store struct {
	mu    sync.Mutex
	f     *os.File
	path  string
	runs  map[string]*runState
	order []string // run IDs in creation order
	// frame is the assembled-frame buffer, reused under mu: a segment is
	// one write syscall.
	frame []byte
}

// ErrNoRun is returned for operations on a run ID the store has no bucket
// for.
var ErrNoRun = errors.New("store: no such run")

// Open opens or creates the store file at path, replaying every complete
// segment into memory. A trailing partial or corrupted frame — the mark of
// a process killed mid-append — is discarded by truncating the file back to
// the last complete segment; corruption earlier in the file truncates there
// too, dropping the later segments (a resumed run then goes unverified past
// the rounds that survived).
func Open(path string) (*Store, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	s := &Store{f: f, path: path, runs: make(map[string]*runState)}
	if err := s.load(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// load replays the file and leaves the cursor at its end, where appends go.
// It returns an error only for conditions that make the file unusable (an
// alien header, I/O failure on the header); frame corruption past the header
// truncates instead.
func (s *Store) load() error {
	if _, err := s.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	st, err := s.f.Stat()
	if err != nil {
		return err
	}
	if st.Size() == 0 {
		// Fresh store: stamp the header.
		var w codec.Writer
		w.String(storeMagic)
		w.Uint32(storeVersion)
		return codec.WriteFrame(s.f, w.Bytes())
	}
	r := io.Reader(s.f)
	hdr, err := codec.ReadFrame(r, maxSegment)
	if err != nil {
		return fmt.Errorf("store: unreadable header in %s: %w", s.path, err)
	}
	hr := codec.NewReader(hdr)
	if magic := hr.String(); magic != storeMagic {
		return fmt.Errorf("store: %s is not a checkpoint store (magic %q)", s.path, magic)
	}
	if v := hr.Uint32(); v != storeVersion {
		return fmt.Errorf("store: %s has format version %d, want %d", s.path, v, storeVersion)
	}
	good, _ := s.f.Seek(0, io.SeekCurrent)
	for {
		payload, err := codec.ReadFrame(r, maxSegment)
		if err == io.EOF {
			break
		}
		if err != nil || s.apply(payload) != nil {
			// Truncated or corrupted tail: cut back to the last good
			// segment and carry on with what survived.
			if terr := s.f.Truncate(good); terr != nil {
				return terr
			}
			break
		}
		good, _ = s.f.Seek(0, io.SeekCurrent)
	}
	_, err = s.f.Seek(good, io.SeekStart)
	return err
}

// apply folds one decoded segment into memory.
func (s *Store) apply(payload []byte) error {
	if len(payload) == 0 {
		return errors.New("store: empty segment")
	}
	r := codec.NewReader(payload[1:])
	switch payload[0] {
	case segRun:
		meta := decodeRunMeta(r)
		if r.Err() != nil {
			return r.Err()
		}
		if _, dup := s.runs[meta.ID]; dup {
			return fmt.Errorf("store: duplicate run %q", meta.ID)
		}
		s.runs[meta.ID] = &runState{meta: meta, rounds: make(map[[2]int]core.RoundCheckpoint)}
		s.order = append(s.order, meta.ID)
	case segRound:
		id := r.String()
		cp := decodeCheckpoint(r)
		if r.Err() != nil {
			return r.Err()
		}
		rs, ok := s.runs[id]
		if !ok {
			return fmt.Errorf("store: round segment for unknown run %q", id)
		}
		key := [2]int{cp.Pass, cp.Round}
		if _, dup := rs.rounds[key]; !dup {
			rs.meta.Rounds++
		}
		rs.rounds[key] = cp
	case segStatus:
		id := r.String()
		kind := r.Byte()
		detail := r.String()
		if r.Err() != nil {
			return r.Err()
		}
		rs, ok := s.runs[id]
		if !ok {
			return fmt.Errorf("store: status segment for unknown run %q", id)
		}
		switch kind {
		case statusDone:
			rs.meta.Done, rs.meta.Detail = true, detail
		case statusInvalid:
			rs.meta.Invalid, rs.meta.Detail = true, detail
			rs.meta.Done = false
			rs.rounds = make(map[[2]int]core.RoundCheckpoint)
			rs.meta.Rounds = 0
		default:
			return fmt.Errorf("store: unknown status byte %#x", kind)
		}
	default:
		return fmt.Errorf("store: unknown segment kind %#x", payload[0])
	}
	return nil
}

// append serializes and writes one segment frame with a single write
// syscall (the frame buffer is reused under mu).
func (s *Store) append(payload []byte) error {
	s.frame = codec.AppendFrame(s.frame[:0], payload)
	_, err := s.f.Write(s.frame)
	return err
}

// CreateRun opens a new run bucket. The ID must be unused.
func (s *Store) CreateRun(id, spec string, codeHash, optionsSig uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.runs[id]; dup {
		return fmt.Errorf("store: run %q already exists", id)
	}
	meta := RunMeta{
		ID: id, Spec: spec,
		CodeHash: codeHash, OptionsSig: optionsSig,
		Created: time.Now(),
	}
	var w codec.Writer
	w.Byte(segRun)
	encodeRunMeta(&w, meta)
	if err := s.append(w.Bytes()); err != nil {
		return err
	}
	s.runs[id] = &runState{meta: meta, rounds: make(map[[2]int]core.RoundCheckpoint)}
	s.order = append(s.order, id)
	return nil
}

// AppendRound records one completed round. Appends are idempotent per
// (pass, round): a resumed run re-checkpoints the rounds it replays, and
// those land on already-stored keys and are dropped without a write.
func (s *Store) AppendRound(id string, cp core.RoundCheckpoint) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	rs, ok := s.runs[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoRun, id)
	}
	if rs.meta.Invalid {
		return fmt.Errorf("store: run %q is invalidated", id)
	}
	key := [2]int{cp.Pass, cp.Round}
	if _, dup := rs.rounds[key]; dup {
		return nil
	}
	w := codec.GetWriter()
	defer codec.PutWriter(w)
	w.Byte(segRound)
	w.String(id)
	body := w.Len()
	encodeCheckpoint(w, cp)
	if err := s.append(w.Bytes()); err != nil {
		return err
	}
	// The sink contract lets the caller reuse cp's slices (the retired
	// Records/NewStates; the engine hands none), so what is retained is the
	// body decoded again — a deep copy, and exactly what a reopen would hold.
	rs.rounds[key] = decodeCheckpoint(codec.NewReader(w.Bytes()[body:]))
	rs.meta.Rounds++
	return nil
}

// FinishRun marks the run done, storing the caller's result summary.
func (s *Store) FinishRun(id, detail string) error {
	return s.status(id, statusDone, detail)
}

// InvalidateRun marks the run's checkpoints unusable (stale binary, digest
// divergence) and drops them from memory; a later Open drops them too.
func (s *Store) InvalidateRun(id, reason string) error {
	return s.status(id, statusInvalid, reason)
}

func (s *Store) status(id string, kind byte, detail string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	rs, ok := s.runs[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoRun, id)
	}
	var w codec.Writer
	w.Byte(segStatus)
	w.String(id)
	w.Byte(kind)
	w.String(detail)
	if err := s.append(w.Bytes()); err != nil {
		return err
	}
	switch kind {
	case statusDone:
		rs.meta.Done, rs.meta.Detail = true, detail
	case statusInvalid:
		rs.meta.Invalid, rs.meta.Detail = true, detail
		rs.meta.Done = false
		rs.rounds = make(map[[2]int]core.RoundCheckpoint)
		rs.meta.Rounds = 0
	}
	return nil
}

// Run returns the metadata of one run.
func (s *Store) Run(id string) (RunMeta, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rs, ok := s.runs[id]
	if !ok {
		return RunMeta{}, false
	}
	return rs.meta, true
}

// Runs lists every run bucket in creation order.
func (s *Store) Runs() []RunMeta {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]RunMeta, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.runs[id].meta)
	}
	return out
}

// Sink returns a core.CheckpointSink appending the run's rounds.
func (s *Store) Sink(id string) core.CheckpointSink { return sink{s, id} }

type sink struct {
	s  *Store
	id string
}

func (k sink) OnRoundCheckpoint(cp core.RoundCheckpoint) error {
	return k.s.AppendRound(k.id, cp)
}

// Resume returns a core.ResumeSource over the run's stored rounds, or nil
// when the run has none worth resuming (unknown, invalidated, or empty) —
// a nil Resume in core.Options just runs fresh.
func (s *Store) Resume(id string) core.ResumeSource {
	s.mu.Lock()
	defer s.mu.Unlock()
	rs, ok := s.runs[id]
	if !ok || rs.meta.Invalid || len(rs.rounds) == 0 {
		return nil
	}
	// Snapshot the map so a concurrent append (the resumed run
	// re-checkpointing) cannot race the engine's walk.
	return resumeSource(maps.Clone(rs.rounds))
}

type resumeSource map[[2]int]core.RoundCheckpoint

func (r resumeSource) RoundHints(pass, round int) (core.RoundCheckpoint, bool) {
	cp, ok := r[[2]int{pass, round}]
	return cp, ok
}

// Close closes the underlying file.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Close()
}

// Path returns the store's file path.
func (s *Store) Path() string { return s.path }
