// Package paxos implements the multi-index Paxos protocol the paper uses
// as its complex distributed testbed (§5): every node plays all three roles
// — proposer, acceptor, learner. A proposition for an index starts with a
// Prepare broadcast; acceptors answer with PrepareResponse; on a majority
// the proposer broadcasts Accept; each acceptor that accepts broadcasts
// Learn to all learners; a learner chooses a value once a majority of
// acceptors sent Learn for the same ballot.
//
// The package provides the correct protocol and, behind a switch, the
// injected bug of §5.5 (previously reported in WiDS Checker): when the
// majority of PrepareResponses arrives, the buggy proposer adopts the value
// submitted in the *last received* response instead of the value of the
// response with the highest accepted ballot.
//
// The state-transition core is exported in a mutating style (Step,
// DoPropose) so that layered services — 1Paxos's PaxosUtility — can embed a
// Paxos instance as their lower-layer module, the way the paper's Mace
// services stack.
package paxos

import (
	"cmp"
	"fmt"
	"slices"

	"lmc/internal/codec"
	"lmc/internal/model"
)

// BugKind selects a protocol variant.
type BugKind int

const (
	// NoBug is the correct protocol.
	NoBug BugKind = iota
	// LastResponseBug makes the proposer use the value of the last received
	// PrepareResponse instead of the highest-ballot accepted value (§5.5).
	LastResponseBug
)

// String names the variant.
func (b BugKind) String() string {
	if b == LastResponseBug {
		return "last-response-bug"
	}
	return "correct"
}

// Ballot is a Paxos proposal number, totally ordered and unique per
// proposer (round number broken by node id).
type Ballot struct {
	N    int
	Node model.NodeID
}

// Zero reports whether the ballot is the "no ballot" value.
func (b Ballot) Zero() bool { return b.N == 0 }

// Less orders ballots.
func (b Ballot) Less(o Ballot) bool {
	if b.N != o.N {
		return b.N < o.N
	}
	return b.Node < o.Node
}

// Encode writes the ballot canonically.
func (b Ballot) Encode(w *codec.Writer) {
	w.Int(b.N)
	w.Int(int(b.Node))
}

// String renders the ballot.
func (b Ballot) String() string {
	if b.Zero() {
		return "b0"
	}
	return fmt.Sprintf("b%d.%v", b.N, b.Node)
}

// accepted is an acceptor's highest accepted (ballot, value) for an index.
type accepted struct {
	Ballot Ballot
	Value  int
}

// proposal is a proposer's in-flight proposition for one index. It is a
// value: a handler that changes one takes a copy, changes the copy and
// stores it back through setProposal.
type proposal struct {
	Ballot Ballot
	Value  int // the proposer's own submitted value
	// Accepting is false while collecting PrepareResponses, true after the
	// Accept broadcast.
	Accepting bool
	// Promises records the responses received so far, ascending by
	// responder, for the value rule.
	Promises []promiseFrom
}

// promiseFrom is one PrepareResponse as remembered by the proposer.
type promiseFrom struct {
	Node model.NodeID
	Info promiseInfo
}

// promiseInfo is the content of one PrepareResponse.
type promiseInfo struct {
	AccBallot Ballot // zero if the responder had accepted nothing
	Value     int    // accepted value, or the echoed submitted value
}

// promiseOf looks up the remembered response from one node.
func (p proposal) promiseOf(n model.NodeID) (promiseInfo, bool) {
	for _, e := range p.Promises {
		if e.Node == n {
			return e.Info, true
		}
	}
	return promiseInfo{}, false
}

// withPromise returns the proposal with one responder's promise recorded
// (or overwritten), keeping the ascending-by-node order.
func (p proposal) withPromise(n model.NodeID, pi promiseInfo) proposal {
	at, found := slices.BinarySearchFunc(p.Promises, n, func(e promiseFrom, n model.NodeID) int { return cmp.Compare(e.Node, n) })
	p.Promises = WithEntry(p.Promises, at, found, promiseFrom{Node: n, Info: pi})
	return p
}

// learnRecord tracks Learn messages received for one (index, ballot, value)
// from distinct acceptors. Like proposal, it is a value.
type learnRecord struct {
	Ballot    Ballot
	Value     int
	Acceptors []model.NodeID // announcing acceptors, ascending, distinct
}

// withAcceptor returns the record with one announcing acceptor added,
// keeping the set distinct and ascending; ok is false, and the record
// returned as it came, when the acceptor was already there.
func (lr learnRecord) withAcceptor(n model.NodeID) (_ learnRecord, ok bool) {
	at, found := slices.BinarySearch(lr.Acceptors, n)
	if found {
		return lr, false
	}
	lr.Acceptors = WithEntry(lr.Acceptors, at, false, n)
	return lr, true
}

// WithEntry returns a copy of s with e at position at: in place of the entry
// there when replace is set, inserted before it otherwise. It is the one way
// a collection of a State changes (and of a layered service's state kept
// under the same sharing rule): s's backing array is never written, so every
// state sharing it keeps what it had.
func WithEntry[E any](s []E, at int, replace bool, e E) []E {
	if replace {
		out := slices.Clone(s)
		out[at] = e
		return out
	}
	out := make([]E, len(s)+1)
	copy(out, s[:at])
	out[at] = e
	copy(out[at+1:], s[at:])
	return out
}

// At is one entry of a per-index collection: what a role holds for one
// index. A collection is a []At[V] ascending by Index, read with Lookup and
// written with Put or PutNew only.
type At[V any] struct {
	Index int
	Value V
}

// Lookup returns what collection c holds for index i.
func Lookup[V any](c []At[V], i int) (V, bool) {
	for _, e := range c {
		if e.Index == i {
			return e.Value, true
		}
	}
	var none V
	return none, false
}

// Put stores v for index i in collection *c of a state whose carried
// fingerprint is *memo: the collection is rebuilt with the entry replaced, or
// inserted in index order (WithEntry), and the memo is cleared. v must not
// share a backing array that anything will write again.
func Put[V any](c *[]At[V], memo *codec.Fingerprint, i int, v V) {
	at, found := slices.BinarySearchFunc(*c, i, func(e At[V], i int) int { return cmp.Compare(e.Index, i) })
	*c = WithEntry(*c, at, found, At[V]{Index: i, Value: v})
	*memo = 0
}

// PutNew is Put where values can be compared: an index that already holds v
// is left alone, carried fingerprint included — a repeated Prepare or Accept
// at the promised ballot leaves the state, and its hash, as they were. It
// reports whether it wrote.
func PutNew[V comparable](c *[]At[V], memo *codec.Fingerprint, i int, v V) bool {
	if old, ok := Lookup(*c, i); ok && old == v {
		return false
	}
	Put(c, memo, i, v)
	return true
}

// State is one Paxos node's local state (all three roles).
//
// Every per-index collection is a slice sorted ascending by index rather
// than a map: at the handful of indexes a checker run touches, sorted
// slices make the fingerprint encoding a short linear scan where maps paid
// for hashing, randomized iteration and per-entry allocation.
//
// Sharing rule: a collection's backing array is immutable from the moment
// it is stored in a State. Clone copies the struct and shares every
// collection with the original; a mutator (set*, SetChosen — all of them Put
// or PutNew — and countProposal) builds the one collection it changes afresh
// and leaves the rest shared. So a transition costs what it changes — most change nothing
// — and no sequence of Clone and mutator calls, on either side, can make
// one state's write visible in another. Code outside the mutators only
// reads the fields: a direct write would also leave a stale carried
// fingerprint behind.
type State struct {
	// Proposer role: in-flight propositions, ascending by index.
	Proposals     []At[proposal]
	ProposalsMade int // test-driver budget consumed

	// Acceptor role: highest promised ballot and highest accepted
	// (ballot, value) per index, each ascending by index.
	Promised []At[Ballot]
	Accepted []At[accepted]

	// Learner role: learn records per index, ordered canonically by (ballot,
	// value), and chosen values (first choice kept), each ascending by index.
	Learns []At[[]learnRecord]
	Chosen []At[int]

	// memo is the carried fingerprint (model.Fingerprinter): the hash of
	// the state's encoding, or zero when not known. Clone copies it and
	// every mutator clears it, so the successor a handler wrote nothing to
	// arrives with its fingerprint.
	memo codec.Fingerprint
	// marks[k] is the running FNV-1a hash of the encoding up to the start of
	// section k+1, or zero when not known: Fingerprint records them, Clone
	// copies them, and a write to a section clears the marks past its start
	// (wrote), so a successor is re-hashed from the first section its
	// handler touched. Two marks keep the struct in a small size class and
	// cover almost all of what a full re-hash would repeat.
	marks [numSections - 1]codec.Fingerprint
}

// The encoding's sections, in order, each opening with a collection that
// handlers often write first: a proposer's Proposals, an acceptor's
// Promised, a learner's Learns.
const (
	proposerSection = iota // ProposalsMade, Proposals
	acceptorSection        // Promised, Accepted
	learnerSection         // Learns, Chosen
	numSections
)

// wrote records a write to section sec: the carried fingerprint and every
// mark past sec's start are stale, the marks before it are not.
func (s *State) wrote(sec int) {
	s.memo = 0
	clear(s.marks[sec:])
}

func (s *State) proposalFor(i int) (proposal, bool) { return Lookup(s.Proposals, i) }

func (s *State) setProposal(i int, p proposal) {
	Put(&s.Proposals, &s.memo, i, p)
	s.wrote(proposerSection)
}

// countProposal charges one proposition against the test-driver budget.
func (s *State) countProposal() {
	s.ProposalsMade++
	s.wrote(proposerSection)
}

func (s *State) promisedFor(i int) (Ballot, bool) { return Lookup(s.Promised, i) }

func (s *State) setPromised(i int, b Ballot) {
	if PutNew(&s.Promised, &s.memo, i, b) {
		s.wrote(acceptorSection)
	}
}

func (s *State) acceptedFor(i int) (accepted, bool) { return Lookup(s.Accepted, i) }

func (s *State) setAccepted(i int, a accepted) {
	if PutNew(&s.Accepted, &s.memo, i, a) {
		s.wrote(acceptorSection)
	}
}

func (s *State) learnsFor(i int) []learnRecord {
	recs, _ := Lookup(s.Learns, i)
	return recs
}

// setLearns stores the learn records of one index (insertRecord and
// WithEntry build theirs afresh, as Put requires).
func (s *State) setLearns(i int, recs []learnRecord) {
	Put(&s.Learns, &s.memo, i, recs)
	s.wrote(learnerSection)
}

// HasChosen reports the chosen value for an index, if any.
func (s *State) HasChosen(index int) (int, bool) { return Lookup(s.Chosen, index) }

// SetChosen records (or overwrites) the chosen value for an index. The
// protocol itself only ever records a first choice (stepLearn checks
// HasChosen); tests and harnesses use SetChosen to build states by hand.
func (s *State) SetChosen(index, value int) {
	if PutNew(&s.Chosen, &s.memo, index, value) {
		s.wrote(learnerSection)
	}
}

// NewState returns an empty node state. All collections start nil — a
// pristine node allocates nothing until its first handler runs.
func NewState() *State { return &State{} }

// Clone implements model.State: a struct copy that shares every collection
// and carries the fingerprint (see the sharing rule on State).
func (s *State) Clone() model.State {
	c := *s
	return &c
}

// CloneInto implements model.Recycler: Clone's struct copy, written into dst
// when dst is a *State. Handlers keep no reference to their input state, and
// messages copy what they carry out of it, so only the collections' backing
// arrays outlive a recycled copy — and those are never written.
func (s *State) CloneInto(dst model.State) model.State {
	d, ok := dst.(*State)
	if !ok {
		return s.Clone()
	}
	*d = *s
	return d
}

// Fingerprint implements model.Fingerprinter: the hash of the state's
// encoding, computed at most once between two writes, and then only from the
// first section written since the hash was last taken (State.marks). The
// sections are written to a Writer in hashing mode, so the encoding is
// folded into the hash as it is written and never buffered; each mark is the
// running hash at a section boundary.
func (s *State) Fingerprint() codec.Fingerprint {
	if s.memo != 0 {
		return s.memo
	}
	sec, h := proposerSection, codec.Hash(nil)
	for k := len(s.marks) - 1; k >= 0; k-- {
		if s.marks[k] != 0 {
			sec, h = k+1, s.marks[k]
			break
		}
	}
	var w codec.Writer
	w.StartHash(h)
	for ; sec < numSections; sec++ {
		if sec > proposerSection {
			s.marks[sec-1] = w.Sum()
		}
		s.encodeSection(sec, &w)
	}
	s.memo = w.Sum()
	return s.memo
}

// Encode implements codec.Encoder. Every collection is written ascending by
// its key — the order the slices maintain by construction — so the byte
// stream is identical to sorting the former map representation's keys; the
// encoding test diffs it against a reference encoder that re-sorts from
// scratch. The byte stream is fingerprint-critical: any change here splits
// the visited-state space across binary versions.
func (s *State) Encode(w *codec.Writer) {
	for sec := proposerSection; sec < numSections; sec++ {
		s.encodeSection(sec, w)
	}
}

// encodeSection writes one section of the encoding; Encode is the sections
// in order, and Fingerprint hashes them one at a time.
func (s *State) encodeSection(sec int, w *codec.Writer) {
	switch sec {
	case proposerSection:
		s.encodeProposer(w)
	case acceptorSection:
		s.encodeAcceptor(w)
	case learnerSection:
		s.encodeLearner(w)
	}
}

func (s *State) encodeProposer(w *codec.Writer) {
	w.Int(s.ProposalsMade)

	w.Uint32(uint32(len(s.Proposals)))
	for _, e := range s.Proposals {
		p := &e.Value
		w.Int(e.Index)
		p.Ballot.Encode(w)
		w.Int(p.Value)
		w.Bool(p.Accepting)
		w.Uint32(uint32(len(p.Promises)))
		for _, pe := range p.Promises {
			w.Int(int(pe.Node))
			pe.Info.AccBallot.Encode(w)
			w.Int(pe.Info.Value)
		}
	}
}

func (s *State) encodeAcceptor(w *codec.Writer) {
	w.Uint32(uint32(len(s.Promised)))
	for _, e := range s.Promised {
		w.Int(e.Index)
		e.Value.Encode(w)
	}

	w.Uint32(uint32(len(s.Accepted)))
	for _, e := range s.Accepted {
		w.Int(e.Index)
		e.Value.Ballot.Encode(w)
		w.Int(e.Value.Value)
	}
}

func (s *State) encodeLearner(w *codec.Writer) {
	w.Uint32(uint32(len(s.Learns)))
	for _, e := range s.Learns {
		w.Int(e.Index)
		w.Uint32(uint32(len(e.Value)))
		for _, lr := range e.Value {
			lr.Ballot.Encode(w)
			w.Int(lr.Value)
			w.Uint32(uint32(len(lr.Acceptors)))
			for _, n := range lr.Acceptors {
				w.Int(int(n))
			}
		}
	}

	w.Uint32(uint32(len(s.Chosen)))
	for _, p := range s.Chosen {
		w.Int(p.Index)
		w.Int(p.Value)
	}
}

// String renders the state compactly: chosen values, accepted values and
// in-flight proposals.
func (s *State) String() string {
	out := "{"
	for _, p := range s.Chosen {
		out += fmt.Sprintf("chosen[%d]=%d ", p.Index, p.Value)
	}
	for _, e := range s.Accepted {
		out += fmt.Sprintf("acc[%d]=%d@%s ", e.Index, e.Value.Value, e.Value.Ballot)
	}
	for _, e := range s.Proposals {
		phase := "prep"
		if e.Value.Accepting {
			phase = "acc"
		}
		out += fmt.Sprintf("prop[%d]=%d@%s/%s ", e.Index, e.Value.Value, e.Value.Ballot, phase)
	}
	return out + "}"
}

// Pristine reports whether the state is indistinguishable from the initial
// state: no role has recorded any activity.
func (s *State) Pristine() bool {
	return s.ProposalsMade == 0 && len(s.Proposals) == 0 &&
		len(s.Promised) == 0 && len(s.Accepted) == 0 &&
		len(s.Learns) == 0 && len(s.Chosen) == 0
}

// MaxBallotSeen returns the highest ballot number this node has observed
// for an index, across all roles — the basis for picking a fresh ballot.
func (s *State) MaxBallotSeen(index int) int {
	max := 0
	if b, ok := s.promisedFor(index); ok && b.N > max {
		max = b.N
	}
	if a, ok := s.acceptedFor(index); ok && a.Ballot.N > max {
		max = a.Ballot.N
	}
	if p, ok := s.proposalFor(index); ok && p.Ballot.N > max {
		max = p.Ballot.N
	}
	for _, lr := range s.learnsFor(index) {
		if lr.Ballot.N > max {
			max = lr.Ballot.N
		}
	}
	return max
}
