// Package onepaxos implements 1Paxos (§5.6, citing "One Acceptor is
// Enough"): an efficient Multi-Paxos variant with a single active acceptor.
// A global leader sends accept requests directly to the active acceptor;
// the acceptor's Learn broadcast alone suffices for learners to choose.
// Upon (suspected) failure, the acceptor is replaced by the global leader.
// Leader and acceptor identities are agreed upon through a separate
// consensus service, PaxosUtility, which — as in the paper's experiment —
// is implemented with Paxos itself, mounted as a lower-layer module of
// every node (the "whole service stack" of §4.2).
//
// The package provides the correct protocol and, behind a switch, the
// paper's newly found bug: the initialization function computed the active
// acceptor with `acceptor = *(members.begin()++)`, which — because postfix
// ++ returns the original iterator — sets the acceptor to the first member,
// the same node as the leader.
package onepaxos

import (
	"fmt"

	"lmc/internal/codec"
	"lmc/internal/model"
	"lmc/internal/protocols/paxos"
)

// BugKind selects a protocol variant.
type BugKind int

const (
	// NoBug initializes the acceptor to the second member, as intended.
	NoBug BugKind = iota
	// PlusPlusBug reproduces the §5.6 initialization bug: the acceptor
	// local variable is set to the first member — the leader itself.
	PlusPlusBug
)

// String names the variant.
func (b BugKind) String() string {
	if b == PlusPlusBug {
		return "plusplus-bug"
	}
	return "correct"
}

// Entry kinds stored in the PaxosUtility log. Entries are encoded into the
// utility's integer value space as kind*1000 + node + 1.
const (
	entryLeader   = 1
	entryAcceptor = 2
)

// EncodeEntry packs a configuration entry into a utility value.
func EncodeEntry(kind int, n model.NodeID) int { return kind*1000 + int(n) + 1 }

// DecodeEntry unpacks a utility value.
func DecodeEntry(v int) (kind int, n model.NodeID) {
	return v / 1000, model.NodeID(v%1000 - 1)
}

// acceptedVal is the acceptor role's record for one index.
type acceptedVal struct {
	Epoch int
	Value int
}

// State is one 1Paxos node's local state, including its embedded
// PaxosUtility (lower-layer Paxos) state.
//
// It follows the sharing rule of paxos.State: Clone copies the struct —
// the utility's included — and shares the collections, which are paxos.At
// slices never written once stored; the mutators below are the only writers,
// and each clears the carried fingerprint. Handlers, scenario builders and
// tests write through them.
type State struct {
	// Util is the PaxosUtility lower layer.
	Util paxos.State
	// UtilApplied is the next utility log index to apply.
	UtilApplied int

	// Leader is the node's view of the global leader.
	Leader model.NodeID
	// Acceptor is the node's view of the active acceptor — the local
	// variable the §5.6 bug mis-initializes.
	Acceptor model.NodeID
	// Epoch counts LeaderChange entries applied; accept requests from
	// stale epochs are refused.
	Epoch int

	// Accepted is the acceptor role's per-index record, ascending by index.
	Accepted []paxos.At[acceptedVal]
	// Chosen is the learner role's decisions, ascending by index.
	Chosen []paxos.At[int]
	// ProposalsMade counts this node's value propositions (driver budget).
	ProposalsMade int
	// LeaderAttempts counts this node's leadership takeovers (driver
	// budget).
	LeaderAttempts int

	// memo is the carried fingerprint (model.Fingerprinter), zero when not
	// known, and memoUtil the utility fingerprint it was computed from: a
	// write to the lower layer clears the utility's own memo, not this one,
	// and shows as a different utility fingerprint.
	memo, memoUtil codec.Fingerprint
}

// applyLeader applies one LeaderChange entry: a new epoch under leader who.
func (s *State) applyLeader(who model.NodeID) {
	s.Epoch++
	s.Leader = who
	s.memo = 0
}

func (s *State) setAcceptor(who model.NodeID) {
	s.Acceptor = who
	s.memo = 0
}

// advanceUtil moves past one applied utility log entry.
func (s *State) advanceUtil() {
	s.UtilApplied++
	s.memo = 0
}

// countProposal and countTakeover charge the driver budgets.
func (s *State) countProposal() {
	s.ProposalsMade++
	s.memo = 0
}

func (s *State) countTakeover() {
	s.LeaderAttempts++
	s.memo = 0
}

func (s *State) acceptedFor(i int) (acceptedVal, bool) { return paxos.Lookup(s.Accepted, i) }
func (s *State) setAccepted(i int, a acceptedVal)      { paxos.PutNew(&s.Accepted, &s.memo, i, a) }

// HasChosen reports the chosen value for an index, if any.
func (s *State) HasChosen(index int) (int, bool) { return paxos.Lookup(s.Chosen, index) }

// SetChosen records (or overwrites) the chosen value for an index. The
// protocol only ever records a first choice; tests build states with it.
func (s *State) SetChosen(index, value int) { paxos.PutNew(&s.Chosen, &s.memo, index, value) }

// Clone implements model.State: a struct copy (see State).
func (s *State) Clone() model.State {
	c := *s
	return &c
}

// CloneInto implements model.Recycler: Clone's struct copy, utility
// included, written into dst when dst is a *State (see paxos.State's).
func (s *State) CloneInto(dst model.State) model.State {
	d, ok := dst.(*State)
	if !ok {
		return s.Clone()
	}
	*d = *s
	return d
}

// Fingerprint implements model.Fingerprinter. The encoding starts with the
// utility's, so the hash carries on from the utility's own carried
// fingerprint over the few bytes this layer adds: a transition that left the
// utility alone never re-hashes it.
func (s *State) Fingerprint() codec.Fingerprint {
	util := s.Util.Fingerprint()
	if s.memo == 0 || s.memoUtil != util {
		var w codec.Writer
		w.StartHash(util)
		s.encodeOwn(&w)
		s.memo, s.memoUtil = w.Sum(), util
	}
	return s.memo
}

// Encode implements codec.Encoder: the utility's encoding, then this
// layer's.
func (s *State) Encode(w *codec.Writer) {
	s.Util.Encode(w)
	s.encodeOwn(w)
}

func (s *State) encodeOwn(w *codec.Writer) {
	w.Int(s.UtilApplied)
	w.Int(int(s.Leader))
	w.Int(int(s.Acceptor))
	w.Int(s.Epoch)
	w.Uint32(uint32(len(s.Accepted)))
	for _, e := range s.Accepted {
		w.Int(e.Index)
		w.Int(e.Value.Epoch)
		w.Int(e.Value.Value)
	}
	w.Uint32(uint32(len(s.Chosen)))
	for _, p := range s.Chosen {
		w.Int(p.Index)
		w.Int(p.Value)
	}
	w.Int(s.ProposalsMade)
	w.Int(s.LeaderAttempts)
}

// String implements model.State.
func (s *State) String() string {
	out := fmt.Sprintf("{L=%v A=%v e=%d", s.Leader, s.Acceptor, s.Epoch)
	for _, p := range s.Chosen {
		out += fmt.Sprintf(" chosen[%d]=%d", p.Index, p.Value)
	}
	return out + "}"
}
