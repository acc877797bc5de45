package core

import (
	"cmp"
	"math/bits"
	"slices"

	"lmc/internal/codec"
	"lmc/internal/model"
)

// This file is the index layer under the witness search (witness.go). A
// search asks two kinds of questions about creation chains — a state's
// chain is its creation edge preds[0], then preds[0].prev's, and so on back
// to seq 0 — and neither is answered by walking them per candidate pair:
//
//   - whether ANY visited state of a completion node generates a message
//     fingerprint along its chain: the per-node producer index, maintained
//     as states are discovered, and asked at most once per message per
//     search (witness.go remembers the answers for the rest of the search);
//   - the missing-message set of a candidate pair: a few word operations on
//     the members' flow memos — bitsets over dense per-pass message ids —
//     each built from its chain once, the first time a search reads it
//     (flowOf), so a run that raises no search builds none.
//
// Both are exact — see the equivalence notes on the individual pieces.
// Nothing is remembered per candidate pair: a pair is examined at most once
// per run. DESIGN.md ("Indexed soundness engine") has the full argument.

// ---------------------------------------------------------------------------
// Producer index
//
// minProducer (on space) maps a message fingerprint to the seq of the first
// state whose creation edge generated it. The index answers the coverage
// question "does any state of node n visible under the view generate fp on
// its creation chain" in O(1):
//
//   ∃ s ∈ states[:lim] with creationEmits(s, fp)  ⇔  minProducer[fp] < lim
//
// (⇐) the producing state's own chain starts with the emitting edge. (⇒) if
// s's chain emits fp, some state t on it (s or an ancestor) has fp on its
// creation edge; ancestors are discovered before their descendants, so
// t.seq ≤ s.seq < lim and minProducer[fp] ≤ t.seq. Edges later added to
// existing states by addPred are on no creation chain (preds[0] is fixed at
// discovery), so indexing only the creation edge is not an approximation.

// creationEmits reports whether an edge of the creation chain of ns, one of
// the space's states, generated fp: the per-state scan the producer index
// summarizes, still asked directly where states are ranked one by one
// (orderByCoverage).
func (sp *space) creationEmits(ns *nodeState, fp codec.Fingerprint) bool {
	for cur := ns; cur.seq != 0; cur = sp.states[cur.preds[0].prev] {
		if slices.Contains(sp.generated(&cur.preds[0]), fp) {
			return true
		}
	}
	return false
}

// indexProducers records ns's creation-edge emissions; called by space.add,
// so the index is maintained as a cheap delta at discovery time by the
// worker that owns the node.
func (sp *space) indexProducers(ns *nodeState) {
	if len(ns.preds) == 0 {
		return
	}
	for _, fp := range sp.generated(&ns.preds[0]) {
		if _, ok := sp.minProducer[fp]; !ok {
			sp.minProducer[fp] = ns.seq
		}
	}
}

// producerBefore reports whether some state with seq < lim generates fp
// along its creation chain.
func (sp *space) producerBefore(fp codec.Fingerprint, lim int) bool {
	seq, ok := sp.minProducer[fp]
	return ok && seq < lim
}

// viewStates is the visited-state list of node n as seen at a discovery's
// virtual time: view[n] is the number of its states visible then.
func (c *checker) viewStates(n int, view []int) []*nodeState {
	return c.spaces[n].states[:view[n]]
}

// coveredByAny answers one coverage question through the producer index: can
// any completion node visible under the view supply fp? The witness search
// asks it once per message and search, and charges the cover-index counters
// itself (checker.coverage, witness.go).
func (c *checker) coveredByAny(completionNodes []int, fp codec.Fingerprint, view []int) bool {
	return slices.ContainsFunc(completionNodes, func(n int) bool {
		return c.spaces[n].producerBefore(fp, view[n])
	})
}

// ---------------------------------------------------------------------------
// Message ids
//
// msgIDs numbers the message fingerprints the flow memos mention 0, 1, 2, …
// in order of first use, so a set of messages is a bitset and a pair's
// missing set a handful of word operations. Every fingerprint a flow can
// mention is that of an I+ entry (consumed messages are entries; generated
// ones were appended, or dropped as duplicates of one), so the table is no
// larger than I+ — at most 78 entries, two words of bits, on the registry
// workloads. It is per pass — ids mean nothing across passes, and beginPass
// starts a new table — and, like the memos it numbers, written by flowOf on
// the merge goroutine only.
type msgIDs struct {
	initial map[codec.Fingerprint]int // the pass's initNetCount
	ids     map[codec.Fingerprint]int32
	fps     []codec.Fingerprint // id → fingerprint
	init    []int               // id → initial count
	init1   idSet               // the ids with initial count ≥ 1
	init2   []int32             // the ids with initial count ≥ 2, ascending
	// twice is whether the pass seeds some message twice or more: its id,
	// once interned, joins init2 and takes missing's exact correction, which
	// the member columns do not model.
	twice bool
}

func newMsgIDs(initial map[codec.Fingerprint]int) msgIDs {
	twice := false
	for _, n := range initial {
		twice = twice || n >= 2
	}
	return msgIDs{initial: initial, ids: make(map[codec.Fingerprint]int32), twice: twice}
}

// id interns fp.
func (t *msgIDs) id(fp codec.Fingerprint) int32 {
	if id, ok := t.ids[fp]; ok {
		return id
	}
	id := int32(len(t.fps))
	t.ids[fp] = id
	t.fps = append(t.fps, fp)
	n := t.initial[fp]
	t.init = append(t.init, n)
	if n >= 1 {
		t.init1.add(id)
	}
	if n >= 2 {
		t.init2 = append(t.init2, id)
	}
	return id
}

// fingerprints lists the members of s, in id order, into dst's backing
// array.
func (t *msgIDs) fingerprints(dst []codec.Fingerprint, s idSet) []codec.Fingerprint {
	out := dst[:0]
	for i, w := range s {
		for ; w != 0; w &= w - 1 {
			out = append(out, t.fps[i<<6+bits.TrailingZeros64(w)])
		}
	}
	return out
}

// idSet is a set of message ids: bit id%64 of word id/64. Sets built at
// different times have different lengths; a word past the end is zero.
type idSet []uint64

func (s idSet) word(i int) uint64 {
	if i < len(s) {
		return s[i]
	}
	return 0
}

func (s idSet) has(id int32) bool { return s.word(int(id>>6))&(1<<(id&63)) != 0 }

func (s *idSet) add(id int32) {
	for int(id>>6) >= len(*s) {
		*s = append(*s, 0)
	}
	(*s)[id>>6] |= 1 << (id & 63)
}

// ---------------------------------------------------------------------------
// Flow memos
//
// A flow memo records a creation chain's net demand per message: consumed
// count minus generated count. Positive counts are messages the chain needs
// beyond what it produces itself; negative ones are surplus production that
// can offset the other pair member's demand. pos and neg are the ids with a
// count ≥ 1 and ≤ −1; the count itself is ±1 unless the id is on wide, the
// ids with |count| ≥ 2 — a chain that consumes or generates one message
// twice, which no chain of a registry workload does. A memo is immutable
// once built; pos and neg are as long as the id table was then.
type flowMemo struct {
	pos, neg idSet
	wide     []wideFlow // ascending id
}

type wideFlow struct {
	id int32
	n  int
}

// noFlow is a start state's memo: its chain is empty.
var noFlow flowMemo

// count is the memo's net count for id.
func (m *flowMemo) count(id int32) int {
	unit := 1
	switch {
	case m.neg.has(id):
		unit = -1
	case !m.pos.has(id):
		return 0
	}
	if i, ok := m.findWide(id); ok {
		return m.wide[i].n
	}
	return unit
}

func (m *flowMemo) findWide(id int32) (int, bool) {
	return slices.BinarySearchFunc(m.wide, id, func(w wideFlow, id int32) int { return cmp.Compare(w.id, id) })
}

// bump adds d to id's count in a memo still being built. wide is shared
// with the parent memo until it changes, so a change copies it first.
func (m *flowMemo) bump(id int32, d int) {
	n := m.count(id) + d
	w, b := id>>6, uint64(1)<<(id&63)
	m.pos[w] &^= b
	m.neg[w] &^= b
	switch {
	case n >= 1:
		m.pos[w] |= b
	case n <= -1:
		m.neg[w] |= b
	}
	i, on := m.findWide(id)
	switch isWide := n >= 2 || n <= -2; {
	case on && isWide:
		m.wide = slices.Clone(m.wide)
		m.wide[i].n = n
	case on:
		m.wide = slices.Delete(slices.Clone(m.wide), i, i+1)
	case isWide:
		m.wide = slices.Insert(slices.Clone(m.wide), i, wideFlow{id: id, n: n})
	}
}

// flowOf returns the flow memo of ns, one of sp's states — the predecessor's
// memo plus the creation edge's delta — building it, and every ancestor's
// still missing, on first use. It is the only builder, and it writes the
// states it walks and the id table: witness searches, its callers, run one at
// a time on the merge goroutine. A start state's chain is empty: its memo is
// noFlow, and its flow field stays nil.
func (t *msgIDs) flowOf(sp *space, ns *nodeState) *flowMemo {
	if ns.seq == 0 {
		return &noFlow
	}
	if ns.flow == nil {
		e := &ns.preds[0]
		parent := t.flowOf(sp, sp.states[e.prev])
		consumed := int32(-1)
		if e.kind == model.NetworkEvent {
			consumed = t.id(e.msgFP)
		}
		var buf [8]int32
		gen := buf[:0]
		for _, g := range sp.generated(e) {
			gen = append(gen, t.id(g))
		}
		n := (len(t.fps) + 63) >> 6
		words := make([]uint64, 2*n)
		m := &flowMemo{pos: words[:n:n], neg: words[n:], wide: parent.wide}
		copy(m.pos, parent.pos)
		copy(m.neg, parent.neg)
		if consumed >= 0 {
			m.bump(consumed, 1)
		}
		for _, id := range gen {
			m.bump(id, -1)
		}
		ns.flow = m
	}
	return ns.flow
}

// missing computes the missing set of the pair of chains behind a and b
// into dst's backing array (the witness search hands it the same buffer for
// every candidate pair): id is missing iff the pair's demand exceeds what
// both chains and the seeded network supply, need > generated + initial,
// i.e. a.count(id) + b.count(id) > initial(id). Where both counts are in
// {−1, 0, 1} and the initial count in {0, 1} that is, per word,
//
//	((Pa &^ Nb) | (Pb &^ Na)) &^ I1  |  Pa & Pb & I1
//
// (with no initial copy the sum must reach 1: one side needs it and the
// other has no surplus; with one it must reach 2: both need it). The ids
// outside that range — on either wide list, or with initial count ≥ 2 — are
// then recomputed from their counts. The result has no trailing zero word,
// so equal sets are equal slices.
func (t *msgIDs) missing(dst idSet, a, b *flowMemo) idSet {
	miss := dst[:0]
	for i := range max(len(a.pos), len(b.pos)) {
		pa, na, pb, nb, i1 := a.pos.word(i), a.neg.word(i), b.pos.word(i), b.neg.word(i), t.init1.word(i)
		miss = append(miss, ((pa&^nb)|(pb&^na))&^i1|pa&pb&i1)
	}
	exact := func(id int32) {
		if int(id>>6) >= len(miss) {
			return // in neither memo: both counts are 0
		}
		bit := uint64(1) << (id & 63)
		miss[id>>6] &^= bit
		if a.count(id)+b.count(id) > t.init[id] {
			miss[id>>6] |= bit
		}
	}
	for _, w := range a.wide {
		exact(w.id)
	}
	for _, w := range b.wide {
		exact(w.id)
	}
	for _, id := range t.init2 {
		exact(id)
	}
	for len(miss) > 0 && miss[len(miss)-1] == 0 {
		miss = miss[:len(miss)-1]
	}
	return miss
}

// ---------------------------------------------------------------------------
// Member columns
//
// memberColumns is an interest group's flow memos transposed: per block of 64
// members (bit i of block j is members[64j+i]) and per message id, the members
// whose memo has the id in pos and those that have it in neg, plus the
// members whose memo has wide entries. A witness search reads a block's rows
// instead of one memo per candidate, and refutes up to 64 candidates in one
// pass over the ids (checker.refuteChunk, witness.go).
//
// For an anchor a whose memo has no wide entries, in a pass that seeds no
// message twice, candidate b misses id x exactly when missing's word formula
// says so, and that selects, per id,
//
//	x ∈ I1:  b ∈ P[x] if a has x in pos, else no member;
//	x ∉ I1:  b ∉ N[x] if a has x in pos (a.count + b.count ≥ 1 unless b has
//	         surplus), no member if a has x in neg, b ∈ P[x] otherwise.
//
// Members enter in member order, the first time a search examines them (the
// per-pair path built their memos then), so the entered members are a prefix
// and a run that raises no search enters none. Ids are per pass, and so are
// groups: the columns start empty with every pass.
type memberColumns struct {
	filled int // members[:filled] have entered
	blocks []memberBlock
}

type memberBlock struct {
	// pos and neg are indexed by message id, 64 ids at a time; an id past
	// the end is in no entered member's memo. posAny has an id's bit when
	// its pos row is not empty.
	pos, neg []uint64
	posAny   idSet
	wide     uint64
}

// enter adds the next member, whose flow memo is m.
func (mc *memberColumns) enter(m *flowMemo) {
	j, bit := mc.filled>>6, uint64(1)<<(mc.filled&63)
	if j == len(mc.blocks) {
		mc.blocks = append(mc.blocks, memberBlock{})
	}
	b := &mc.blocks[j]
	if n := len(m.pos) << 6; n > len(b.pos) {
		b.pos = append(b.pos, make([]uint64, n-len(b.pos))...)
		b.neg = append(b.neg, make([]uint64, n-len(b.neg))...)
	}
	for len(b.posAny) < len(m.pos) {
		b.posAny = append(b.posAny, 0)
	}
	for i, x := range m.pos {
		b.posAny[i] |= x
		for ; x != 0; x &= x - 1 {
			b.pos[i<<6+bits.TrailingZeros64(x)] |= bit
		}
	}
	for i, x := range m.neg {
		for ; x != 0; x &= x - 1 {
			b.neg[i<<6+bits.TrailingZeros64(x)] |= bit
		}
	}
	if len(m.wide) > 0 {
		b.wide |= bit
	}
	mc.filled++
}
