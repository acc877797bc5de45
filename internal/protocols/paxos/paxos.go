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

// State is one Paxos node's local state (all three roles).
//
// Every per-index collection is a slice sorted ascending by index rather
// than a map: at the handful of indexes a checker run touches, sorted
// slices make the fingerprint encoding a short linear scan where maps paid
// for hashing, randomized iteration and per-entry allocation.
//
// Sharing rule: a collection's backing array is immutable from the moment
// it is stored in a State. Clone copies the struct and shares every
// collection with the original; a mutator (set*, SetChosen, countProposal)
// builds the one collection it changes afresh (WithEntry) and leaves the
// rest shared. So a transition costs what it changes — most change nothing
// — and no sequence of Clone and mutator calls, on either side, can make
// one state's write visible in another. Code outside the mutators only
// reads the fields: a direct write would also leave a stale carried
// fingerprint behind.
type State struct {
	// Proposer role: in-flight propositions, ascending by index.
	Proposals     []proposalAt
	ProposalsMade int // test-driver budget consumed

	// Acceptor role: highest promised ballot and highest accepted
	// (ballot, value) per index, each ascending by index.
	Promised []promisedAt
	Accepted []acceptedAt

	// Learner role: learn records per index and chosen values (first
	// choice kept), each ascending by index.
	Learns []learnsAt
	Chosen []ChoicePair

	// memo is the carried fingerprint (model.Fingerprinter): the hash of
	// the state's encoding, or zero when not known. Clone copies it and
	// every mutator clears it, so the successor a handler wrote nothing to
	// arrives with its fingerprint.
	memo codec.Fingerprint
}

// proposalAt is one in-flight proposition keyed by its index.
type proposalAt struct {
	Index int
	P     proposal
}

// promisedAt is the highest promised ballot for one index.
type promisedAt struct {
	Index  int
	Ballot Ballot
}

// acceptedAt is the highest accepted (ballot, value) for one index.
type acceptedAt struct {
	Index int
	A     accepted
}

// learnsAt is the learn records for one index, ordered canonically by
// (ballot, value).
type learnsAt struct {
	Index int
	Recs  []learnRecord
}

// ChoicePair is one (index, value) choice, in ascending index order.
type ChoicePair struct{ Index, Value int }

func (s *State) proposalFor(i int) (proposal, bool) {
	for _, e := range s.Proposals {
		if e.Index == i {
			return e.P, true
		}
	}
	return proposal{}, false
}

func (s *State) setProposal(i int, p proposal) {
	at, found := slices.BinarySearchFunc(s.Proposals, i, func(e proposalAt, i int) int { return cmp.Compare(e.Index, i) })
	s.Proposals = WithEntry(s.Proposals, at, found, proposalAt{Index: i, P: p})
	s.memo = 0
}

// countProposal charges one proposition against the test-driver budget.
func (s *State) countProposal() {
	s.ProposalsMade++
	s.memo = 0
}

func (s *State) promisedFor(i int) (Ballot, bool) {
	for _, e := range s.Promised {
		if e.Index == i {
			return e.Ballot, true
		}
	}
	return Ballot{}, false
}

// setPromised, setAccepted and SetChosen write nothing — and keep the
// carried fingerprint — when the index already holds the value: a repeated
// Prepare or Accept at the promised ballot leaves the state as it was.
func (s *State) setPromised(i int, b Ballot) {
	at, found := slices.BinarySearchFunc(s.Promised, i, func(e promisedAt, i int) int { return cmp.Compare(e.Index, i) })
	e := promisedAt{Index: i, Ballot: b}
	if found && s.Promised[at] == e {
		return
	}
	s.Promised = WithEntry(s.Promised, at, found, e)
	s.memo = 0
}

func (s *State) acceptedFor(i int) (accepted, bool) {
	for _, e := range s.Accepted {
		if e.Index == i {
			return e.A, true
		}
	}
	return accepted{}, false
}

func (s *State) setAccepted(i int, a accepted) {
	at, found := slices.BinarySearchFunc(s.Accepted, i, func(e acceptedAt, i int) int { return cmp.Compare(e.Index, i) })
	e := acceptedAt{Index: i, A: a}
	if found && s.Accepted[at] == e {
		return
	}
	s.Accepted = WithEntry(s.Accepted, at, found, e)
	s.memo = 0
}

func (s *State) learnsFor(i int) []learnRecord {
	for _, e := range s.Learns {
		if e.Index == i {
			return e.Recs
		}
	}
	return nil
}

// setLearns stores the learn records of one index; recs must not share a
// backing array that anything will write again (insertRecord and WithEntry
// build theirs afresh).
func (s *State) setLearns(i int, recs []learnRecord) {
	at, found := slices.BinarySearchFunc(s.Learns, i, func(e learnsAt, i int) int { return cmp.Compare(e.Index, i) })
	s.Learns = WithEntry(s.Learns, at, found, learnsAt{Index: i, Recs: recs})
	s.memo = 0
}

// SetChosen records (or overwrites) the chosen value for an index, keeping
// the ascending order. The protocol itself only ever records a first choice
// (stepLearn checks HasChosen); tests and harnesses use SetChosen to build
// states by hand.
func (s *State) SetChosen(index, value int) {
	at, found := slices.BinarySearchFunc(s.Chosen, index, func(e ChoicePair, i int) int { return cmp.Compare(e.Index, i) })
	e := ChoicePair{Index: index, Value: value}
	if found && s.Chosen[at] == e {
		return
	}
	s.Chosen = WithEntry(s.Chosen, at, found, e)
	s.memo = 0
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

// Fingerprint implements model.Fingerprinter: the hash of the state's
// encoding, computed at most once between two writes.
func (s *State) Fingerprint() codec.Fingerprint {
	if s.memo == 0 {
		s.memo = codec.HashOf(s)
	}
	return s.memo
}

// Encode implements codec.Encoder. Every collection is written ascending by
// its key — the order the slices maintain by construction — so the byte
// stream is identical to sorting the former map representation's keys; the
// encoding test diffs it against a reference encoder that re-sorts from
// scratch. The byte stream is fingerprint-critical: any change here splits
// the visited-state space across binary versions.
func (s *State) Encode(w *codec.Writer) {
	w.Int(s.ProposalsMade)

	w.Uint32(uint32(len(s.Proposals)))
	for _, e := range s.Proposals {
		p := &e.P
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

	w.Uint32(uint32(len(s.Promised)))
	for _, e := range s.Promised {
		w.Int(e.Index)
		e.Ballot.Encode(w)
	}

	w.Uint32(uint32(len(s.Accepted)))
	for _, e := range s.Accepted {
		w.Int(e.Index)
		e.A.Ballot.Encode(w)
		w.Int(e.A.Value)
	}

	w.Uint32(uint32(len(s.Learns)))
	for _, e := range s.Learns {
		w.Int(e.Index)
		w.Uint32(uint32(len(e.Recs)))
		for _, lr := range e.Recs {
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
		out += fmt.Sprintf("acc[%d]=%d@%s ", e.Index, e.A.Value, e.A.Ballot)
	}
	for _, e := range s.Proposals {
		phase := "prep"
		if e.P.Accepting {
			phase = "acc"
		}
		out += fmt.Sprintf("prop[%d]=%d@%s/%s ", e.Index, e.P.Value, e.P.Ballot, phase)
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

// HasChosen reports the chosen value for an index, if any.
func (s *State) HasChosen(index int) (int, bool) {
	for _, p := range s.Chosen {
		if p.Index == index {
			return p.Value, true
		}
	}
	return 0, false
}

// ChosenSet returns the chosen values as a map.
func (s *State) ChosenSet() map[int]int {
	out := make(map[int]int, len(s.Chosen))
	for _, p := range s.Chosen {
		out[p.Index] = p.Value
	}
	return out
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
