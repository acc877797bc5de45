package store

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"lmc/internal/codec"
	"lmc/internal/core"
	"lmc/internal/stats"
)

func sampleCheckpoint(round int) core.RoundCheckpoint {
	return core.RoundCheckpoint{
		Pass: 1, Round: round, LocalBound: 3,
		Records: []core.DeliveryRecord{
			{Entry: 0, Parent: 11, Succ: 22, Emitted: []codec.Fingerprint{7, 8}},
			{Entry: 1, Parent: 11, Rejected: true},
			{Entry: 2, Parent: 33, Succ: 44},
		},
		NewStates: [][]codec.Fingerprint{{22}, nil, {44, 55}},
		Digest:    core.ShardDigest{NetLen: 4, Net: 99, States: 6, Spaces: 123},
		Counters: stats.Counters{
			Transitions: 10*round + 1, NodeStates: 6, MaxDepth: round,
			SoundnessTime: 5 * time.Millisecond,
		},
	}
}

func TestStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.lmcstore")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateRun("job-1", "paxos/GEN", 0xabc, 0xdef); err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 3; round++ {
		if err := s.AppendRound("job-1", sampleCheckpoint(round)); err != nil {
			t.Fatal(err)
		}
	}
	// Idempotent re-append of a stored round must not grow the file.
	before, _ := s.f.Seek(0, 1)
	if err := s.AppendRound("job-1", sampleCheckpoint(2)); err != nil {
		t.Fatal(err)
	}
	if after, _ := s.f.Seek(0, 1); after != before {
		t.Fatalf("duplicate round grew the file: %d -> %d", before, after)
	}
	if err := s.FinishRun("job-1", `{"ok":true}`); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	meta, ok := s2.Run("job-1")
	if !ok {
		t.Fatal("run lost on reopen")
	}
	if meta.Spec != "paxos/GEN" || meta.CodeHash != 0xabc || meta.OptionsSig != 0xdef {
		t.Fatalf("meta mangled: %+v", meta)
	}
	if !meta.Done || meta.Detail != `{"ok":true}` || meta.Rounds != 3 {
		t.Fatalf("status mangled: %+v", meta)
	}
	src := s2.Resume("job-1")
	if src == nil {
		t.Fatal("no resume source for stored run")
	}
	for round := 1; round <= 3; round++ {
		cp, ok := src.RoundHints(1, round)
		if !ok {
			t.Fatalf("round %d missing", round)
		}
		if !reflect.DeepEqual(cp, sampleCheckpoint(round)) {
			t.Fatalf("round %d mangled:\n got %+v\nwant %+v", round, cp, sampleCheckpoint(round))
		}
	}
	if _, ok := src.RoundHints(1, 4); ok {
		t.Fatal("phantom round 4")
	}
	if _, ok := src.RoundHints(2, 1); ok {
		t.Fatal("phantom pass 2")
	}
}

func TestStoreTruncatedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.lmcstore")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateRun("r", "spec", 1, 2); err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 2; round++ {
		if err := s.AppendRound("r", sampleCheckpoint(round)); err != nil {
			t.Fatal(err)
		}
	}
	goodLen, _ := s.f.Seek(0, 1)
	if err := s.AppendRound("r", sampleCheckpoint(3)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Chop the tail mid-frame at every offset inside the last segment: every
	// cut must recover to exactly the first two rounds.
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := int64(len(full)) - 1; cut > goodLen; cut -= 7 {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(path)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		meta, ok := s2.Run("r")
		if !ok || meta.Rounds != 2 {
			t.Fatalf("cut %d: rounds=%d, want 2", cut, meta.Rounds)
		}
		if st, _ := s2.f.Stat(); st.Size() != goodLen {
			t.Fatalf("cut %d: file not truncated to %d, got %d", cut, goodLen, st.Size())
		}
		// The recovered store must accept new appends on the clean boundary.
		if err := s2.AppendRound("r", sampleCheckpoint(3)); err != nil {
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		}
		s2.Close()
		s3, err := Open(path)
		if err != nil {
			t.Fatalf("cut %d reopen: %v", cut, err)
		}
		if meta, _ := s3.Run("r"); meta.Rounds != 3 {
			t.Fatalf("cut %d: post-recovery append lost, rounds=%d", cut, meta.Rounds)
		}
		s3.Close()
	}
}

func TestStoreCorruptMidFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.lmcstore")
	s, _ := Open(path)
	s.CreateRun("r", "spec", 1, 2)
	s.AppendRound("r", sampleCheckpoint(1))
	mid, _ := s.f.Seek(0, 1)
	s.AppendRound("r", sampleCheckpoint(2))
	s.Close()

	full, _ := os.ReadFile(path)
	full[mid+10] ^= 0xff // corrupt inside round 2's frame; checksum catches it
	os.WriteFile(path, full, 0o644)

	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	meta, _ := s2.Run("r")
	if meta.Rounds != 1 {
		t.Fatalf("rounds=%d after mid-file corruption, want 1", meta.Rounds)
	}
	if st, _ := s2.f.Stat(); st.Size() != mid {
		t.Fatalf("file not truncated at corruption: size=%d want %d", st.Size(), mid)
	}
}

func TestStoreInvalidate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.lmcstore")
	s, _ := Open(path)
	s.CreateRun("r", "spec", 1, 2)
	s.AppendRound("r", sampleCheckpoint(1))
	if err := s.InvalidateRun("r", "code hash changed"); err != nil {
		t.Fatal(err)
	}
	if s.Resume("r") != nil {
		t.Fatal("invalidated run still resumable")
	}
	if err := s.AppendRound("r", sampleCheckpoint(2)); err == nil {
		t.Fatal("append to invalidated run succeeded")
	}
	s.Close()

	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	meta, _ := s2.Run("r")
	if !meta.Invalid || meta.Detail != "code hash changed" || meta.Rounds != 0 {
		t.Fatalf("invalidation lost on reopen: %+v", meta)
	}
	if s2.Resume("r") != nil {
		t.Fatal("invalidated run resumable after reopen")
	}
}

func TestStoreRejectsAlienFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "not-a-store")
	if err := os.WriteFile(path, []byte("some other file format entirely"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatal("opened an alien file as a store")
	}
}

func TestOptionsSig(t *testing.T) {
	if OptionsSig("ab", "c") == OptionsSig("a", "bc") {
		t.Fatal("length prefixing missing: shifted parts collide")
	}
	if OptionsSig("x") != OptionsSig("x") {
		t.Fatal("not deterministic")
	}
	if OptionsSig("x") == OptionsSig("y") {
		t.Fatal("distinct parts collide")
	}
}

func TestCodeHash(t *testing.T) {
	h := CodeHash()
	if h == 0 {
		t.Fatal("CodeHash()=0 for a readable test binary")
	}
	if h != CodeHash() {
		t.Fatal("CodeHash not stable")
	}
}

// goldenRounds are the two rounds of the run stored in testdata/v1.lmcstore,
// a file written by the store before the record codec moved to internal/core.
func goldenRounds() []core.RoundCheckpoint {
	return []core.RoundCheckpoint{
		{
			Pass: 1, Round: 1, LocalBound: 1,
			Records: []core.DeliveryRecord{
				{Entry: 0, Parent: 0x1111, Succ: 0x2222, Emitted: []codec.Fingerprint{0xa1, 0xa2}},
				{Entry: 2, Parent: 0x3333, Succ: 0x4444},
			},
			NewStates: [][]codec.Fingerprint{{0x2222}, nil, {0x4444, 0x4445}},
			Digest:    core.ShardDigest{NetLen: 5, Net: 0xabc, States: 6, Spaces: 0xdef},
			Counters:  stats.Counters{Transitions: 9, NodeStates: 6, SystemStates: 14, InvariantChecks: 14, MaxDepth: 2, Elapsed: 1234},
		},
		{
			Pass: 1, Round: 2, LocalBound: 1,
			Records: []core.DeliveryRecord{
				{Entry: 3, Parent: 0x2222, Rejected: true},
				{Entry: 5, Parent: 0x4444, Succ: 0x5555, Emitted: []codec.Fingerprint{0xb1}},
			},
			NewStates: [][]codec.Fingerprint{nil, {0x5555}, nil},
			Digest:    core.ShardDigest{NetLen: 6, Net: 0x123, States: 7, Spaces: 0x456},
			Counters:  stats.Counters{Transitions: 21, NodeStates: 7, SystemStates: 30, InvariantChecks: 30, Rejections: 1, DuplicatesDropped: 3, MaxDepth: 3, Elapsed: 5678},
		},
	}
}

// TestStoreFormatV1Pinned holds the on-disk format at storeVersion 1: the
// committed file must open and resume to exactly the rounds it was written
// from, and appending those rounds to a fresh store must produce the same
// round segments byte for byte.
func TestStoreFormatV1Pinned(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "v1.lmcstore"))
	if err != nil {
		t.Fatal(err)
	}
	// Open may truncate a file it finds damaged; work on a copy.
	path := filepath.Join(t.TempDir(), "v1.lmcstore")
	if err := os.WriteFile(path, golden, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	meta, ok := s.Run("golden-run")
	if !ok || meta.Rounds != 2 || meta.CodeHash != 0xc0de || meta.OptionsSig != 0x5167 {
		t.Fatalf("pinned run reopened as %+v (found %v)", meta, ok)
	}
	src := s.Resume("golden-run")
	if src == nil {
		t.Fatal("no resume source for the pinned run")
	}
	for _, want := range goldenRounds() {
		got, ok := src.RoundHints(want.Pass, want.Round)
		if !ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d/%d resumed as (found %v)\n got %+v\nwant %+v", want.Pass, want.Round, ok, got, want)
		}
	}

	fresh, err := Open(filepath.Join(t.TempDir(), "fresh.lmcstore"))
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if err := fresh.CreateRun("golden-run", meta.Spec, meta.CodeHash, meta.OptionsSig); err != nil {
		t.Fatal(err)
	}
	// Header and run segment differ only in the creation time; everything
	// after them is round segments.
	st, err := os.Stat(fresh.Path())
	if err != nil {
		t.Fatal(err)
	}
	roundsFrom := st.Size()
	for _, cp := range goldenRounds() {
		if err := fresh.AppendRound("golden-run", cp); err != nil {
			t.Fatal(err)
		}
	}
	written, err := os.ReadFile(fresh.Path())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(written[roundsFrom:], golden[roundsFrom:]) {
		t.Fatalf("round segments drifted from the pinned v1 encoding:\n got %x\nwant %x", written[roundsFrom:], golden[roundsFrom:])
	}
}
