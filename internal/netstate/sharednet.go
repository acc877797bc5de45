package netstate

import (
	"sync"
	"sync/atomic"

	"lmc/internal/codec"
	"lmc/internal/model"
)

// SharedNet is the concurrency-safe view of the shared network I+ used by
// the parallel exploration engine: appends are serialized behind a mutex,
// while readers iterate lock-free over an immutable snapshot published
// atomically after every append batch.
//
// Monotonicity (§2: I+ only ever grows) is exactly what makes the scheme
// sound. A snapshot taken at any instant is a stable prefix of every later
// snapshot — entries never move, mutate identity, or disappear — so a
// worker holding a round's Epoch sees a well-defined network regardless of
// concurrent appends, and per-entry Applied prefixes plus per-round entry
// counts stay valid across epochs.
type SharedNet struct {
	mu   sync.Mutex
	sh   *Shared
	view atomic.Pointer[[]*Entry] // published immutable prefix of sh.entries
}

// NewSharedNet returns an empty concurrent shared network with the given
// duplicate limit.
func NewSharedNet(dupLimit int) *SharedNet {
	s := &SharedNet{sh: NewShared(dupLimit)}
	empty := []*Entry{}
	s.view.Store(&empty)
	return s
}

// publish must be called with mu held: it makes the current entry list
// visible to lock-free readers. The stored slice header is never mutated
// afterwards (appends may reallocate sh.entries, but published headers keep
// referencing the prefix they captured).
func (s *SharedNet) publish() {
	v := s.sh.Entries()
	s.view.Store(&v)
}

// Add inserts m unless its duplicate budget is exhausted, returning the new
// entry or nil for an over-limit duplicate.
func (s *SharedNet) Add(m model.Message) *Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.sh.Add(m)
	if e != nil {
		s.publish()
	}
	return e
}

// AddAll inserts every message in c as one batch, returning the entries
// actually added. Readers observe the batch atomically.
func (s *SharedNet) AddAll(c []model.Message) []*Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	var added []*Entry
	for _, m := range c {
		if e := s.sh.Add(m); e != nil {
			added = append(added, e)
		}
	}
	if len(added) > 0 {
		s.publish()
	}
	return added
}

// AddAllFP is AddAll for callers that already hold the messages'
// fingerprints (fps[i] must be model.MessageFingerprint(c[i])), skipping
// the re-hash on insert. Readers observe the batch atomically.
func (s *SharedNet) AddAllFP(c []model.Message, fps []codec.Fingerprint) []*Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	var added []*Entry
	for i, m := range c {
		if e := s.sh.AddFP(m, fps[i]); e != nil {
			added = append(added, e)
		}
	}
	if len(added) > 0 {
		s.publish()
	}
	return added
}

// Epoch snapshots the currently published entries. The snapshot is
// immutable: it remains a valid prefix of the network forever.
func (s *SharedNet) Epoch() Epoch { return Epoch{entries: *s.view.Load()} }

// Len is the number of published entries.
func (s *SharedNet) Len() int { return len(*s.view.Load()) }

// Entry returns the i-th published entry.
func (s *SharedNet) Entry(i int) *Entry { return (*s.view.Load())[i] }

// Dropped is the number of messages refused as over-limit duplicates.
func (s *SharedNet) Dropped() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sh.Dropped()
}

// Contains reports whether at least one copy of the message fingerprint has
// been stored.
func (s *SharedNet) Contains(fp codec.Fingerprint) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sh.Contains(fp)
}

// Digest is an order-sensitive fingerprint of the whole network — every
// entry's (fingerprint, copy) in append order. Two replicas that ran the
// same rounds agree on it; the shard protocol compares digests at round
// ends to detect divergence.
func (s *SharedNet) Digest() codec.Fingerprint {
	view := *s.view.Load()
	h := codec.NewHasher()
	h.Add(codec.Fingerprint(len(view)))
	for _, e := range view {
		h.Add(e.FP)
		h.Add(codec.Fingerprint(e.Copy))
	}
	return h.Sum()
}

// AnyAdmissible reports whether at least one of the fingerprints would be
// admitted by the duplicate limit right now. The sharded merge uses it to
// decide whether a fingerprint-only emission batch needs its messages
// materialized: when every copy budget is exhausted the whole batch drops
// without re-executing the producing handler.
func (s *SharedNet) AnyAdmissible(fps []codec.Fingerprint) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, fp := range fps {
		if s.sh.index[fp] < 1+s.sh.DupLimit {
			return true
		}
	}
	return false
}

// Epoch is an immutable snapshot of the shared network taken at a round
// boundary. Exploration workers of one round all iterate the same epoch, so
// the set of deliverable messages is identical for every worker count.
type Epoch struct {
	entries []*Entry
}

// Len is the number of entries in the snapshot.
func (e Epoch) Len() int { return len(e.entries) }

// Entry returns the i-th entry of the snapshot.
func (e Epoch) Entry(i int) *Entry { return e.entries[i] }
