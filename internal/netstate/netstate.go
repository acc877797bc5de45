// Package netstate implements the two network representations of the paper:
//
//   - Multiset: the classic in-flight message multiset I that is part of
//     every global state in the baseline checker (Figure 5). Delivering a
//     message removes it; sending inserts it.
//   - Shared: the single, monotonically growing network object I+ of the
//     local approach (Figures 7 and 8). Messages are never removed —
//     "this is necessary for the completeness of the search, because each
//     message must be received by all the states of the destination node,
//     including the node states that will be explored later" (§2) — and
//     each message remembers how many states of its destination node it has
//     already been executed on, so each round only considers newly added
//     states (§4.2).
package netstate

import (
	"fmt"
	"sort"
	"strings"

	"lmc/internal/codec"
	"lmc/internal/model"
)

// Multiset is the in-flight network I of a global state. The zero value is
// not ready; use NewMultiset. A Multiset maintains an order-insensitive
// running fingerprint so global-state hashing is O(1) in the network part.
type Multiset struct {
	entries map[codec.Fingerprint]*multiEntry
	size    int
	fpSum   uint64 // commutative fingerprint accumulator
}

type multiEntry struct {
	msg   model.Message
	count int
	mix   uint64 // premixed per-copy contribution to fpSum
}

// NewMultiset returns an empty in-flight network.
func NewMultiset() *Multiset {
	return &Multiset{entries: make(map[codec.Fingerprint]*multiEntry)}
}

func premix(fp codec.Fingerprint) uint64 {
	return uint64(codec.Combine(fp))
}

// Add inserts one copy of m, returning its fingerprint.
func (ms *Multiset) Add(m model.Message) codec.Fingerprint {
	fp := model.MessageFingerprint(m)
	e := ms.entries[fp]
	if e == nil {
		e = &multiEntry{msg: m, mix: premix(fp)}
		ms.entries[fp] = e
	}
	e.count++
	ms.size++
	ms.fpSum += e.mix
	return fp
}

// AddAll inserts one copy of every message in c.
func (ms *Multiset) AddAll(c []model.Message) {
	for _, m := range c {
		ms.Add(m)
	}
}

// Remove deletes one copy of the message with fingerprint fp. It reports
// whether a copy was present.
func (ms *Multiset) Remove(fp codec.Fingerprint) bool {
	e := ms.entries[fp]
	if e == nil {
		return false
	}
	e.count--
	ms.size--
	ms.fpSum -= e.mix
	if e.count == 0 {
		delete(ms.entries, fp)
	}
	return true
}

// Contains reports whether at least one copy of fp is in flight.
func (ms *Multiset) Contains(fp codec.Fingerprint) bool {
	return ms.entries[fp] != nil
}

// Len is the total number of in-flight message copies.
func (ms *Multiset) Len() int { return ms.size }

// Distinct is the number of distinct in-flight messages.
func (ms *Multiset) Distinct() int { return len(ms.entries) }

// Fingerprint is an order-insensitive hash of the multiset contents,
// suitable for combining into a global-state fingerprint.
func (ms *Multiset) Fingerprint() codec.Fingerprint {
	return codec.Fingerprint(ms.fpSum ^ uint64(ms.size)*0x9e3779b97f4a7c15)
}

// Clone deep-copies the multiset structure (messages themselves are
// immutable and shared).
func (ms *Multiset) Clone() *Multiset {
	out := &Multiset{
		entries: make(map[codec.Fingerprint]*multiEntry, len(ms.entries)),
		size:    ms.size,
		fpSum:   ms.fpSum,
	}
	for fp, e := range ms.entries {
		out.entries[fp] = &multiEntry{msg: e.msg, count: e.count, mix: e.mix}
	}
	return out
}

// Messages returns the distinct in-flight messages with their counts, in
// deterministic (fingerprint) order.
func (ms *Multiset) Messages() []InFlight {
	out := make([]InFlight, 0, len(ms.entries))
	for fp, e := range ms.entries {
		out = append(out, InFlight{Msg: e.msg, FP: fp, Count: e.count})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].FP < out[j].FP })
	return out
}

// String renders the multiset for debugging.
func (ms *Multiset) String() string {
	items := ms.Messages()
	parts := make([]string, len(items))
	for i, it := range items {
		if it.Count > 1 {
			parts[i] = fmt.Sprintf("%s x%d", it.Msg.String(), it.Count)
		} else {
			parts[i] = it.Msg.String()
		}
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// InFlight pairs a distinct message with its multiplicity.
type InFlight struct {
	Msg   model.Message
	FP    codec.Fingerprint
	Count int
}

// Entry is a message stored in the shared network I+.
type Entry struct {
	Msg model.Message
	FP  codec.Fingerprint
	// Copy distinguishes tolerated duplicates (see Shared.DupLimit). Copy 0
	// is the original; copies 1..DupLimit of an identical message get
	// distinct identities so the checker delivers them separately.
	Copy int
	// Applied is the number of states of the destination node (a prefix of
	// the checker's per-node visited list) this message has already been
	// executed on. Maintained by the checker, not by this package.
	Applied int
	// RecvEventFP memoizes the fingerprint of the receive event delivering
	// this entry, which is otherwise re-hashed for every (entry, state)
	// execution. Like Applied it is maintained by the checker and owned by
	// the destination node's worker during a delivery phase; zero means not
	// yet computed.
	RecvEventFP codec.Fingerprint
}

// EventFingerprint identifies the delivery of this entry. For copy 0 it is
// the plain message fingerprint — which is what soundness verification
// matches against generated-message hashes.
func (e *Entry) EventFingerprint() codec.Fingerprint {
	if e.Copy == 0 {
		return e.FP
	}
	return codec.Combine(e.FP, codec.Fingerprint(e.Copy))
}

// Shared is the single network object I+ of local model checking. Content
// only ever grows. Duplicate messages (identical canonical encoding) are
// admitted up to DupLimit extra copies per message; the paper sets this
// limit to zero for all reported results (§4.2, "Duplicate messages").
type Shared struct {
	// DupLimit is the number of duplicate copies of an identical message
	// tolerated beyond the first. Zero (the default) drops duplicates.
	DupLimit int

	entries []*Entry
	index   map[codec.Fingerprint]int // message fingerprint → copies stored
	dropped int
}

// NewShared returns an empty shared network with the given duplicate limit.
func NewShared(dupLimit int) *Shared {
	return &Shared{DupLimit: dupLimit, index: make(map[codec.Fingerprint]int)}
}

// Add inserts m unless its duplicate budget is exhausted. It returns the
// new entry, or nil if the message was dropped as an over-limit duplicate.
func (sh *Shared) Add(m model.Message) *Entry {
	return sh.AddFP(m, model.MessageFingerprint(m))
}

// AddFP is Add for callers that already hold m's fingerprint (the checker
// fingerprints emissions once at the handler and reuses the hash here).
func (sh *Shared) AddFP(m model.Message, fp codec.Fingerprint) *Entry {
	copies := sh.index[fp]
	if copies >= 1+sh.DupLimit {
		sh.dropped++
		return nil
	}
	e := &Entry{Msg: m, FP: fp, Copy: copies}
	sh.index[fp] = copies + 1
	sh.entries = append(sh.entries, e)
	return e
}

// AddAll inserts every message in c, returning the entries actually added.
func (sh *Shared) AddAll(c []model.Message) []*Entry {
	var added []*Entry
	for _, m := range c {
		if e := sh.Add(m); e != nil {
			added = append(added, e)
		}
	}
	return added
}

// Len is the number of stored entries (distinct messages plus tolerated
// duplicate copies).
func (sh *Shared) Len() int { return len(sh.entries) }

// Dropped is the number of messages refused as over-limit duplicates.
func (sh *Shared) Dropped() int { return sh.dropped }

// Entries exposes the stored entries in insertion order. The checker
// iterates this list each round; because content only grows, indexes are
// stable.
func (sh *Shared) Entries() []*Entry { return sh.entries }

// Entry returns the i-th stored entry.
func (sh *Shared) Entry(i int) *Entry { return sh.entries[i] }

// Contains reports whether at least one copy of the message fingerprint has
// been stored.
func (sh *Shared) Contains(fp codec.Fingerprint) bool { return sh.index[fp] > 0 }

// String renders the shared network for debugging.
func (sh *Shared) String() string {
	parts := make([]string, len(sh.entries))
	for i, e := range sh.entries {
		parts[i] = e.Msg.String()
		if e.Copy > 0 {
			parts[i] += fmt.Sprintf("#%d", e.Copy)
		}
	}
	return "I+{" + strings.Join(parts, ", ") + "}"
}
