// Package model defines the distributed-system model of the paper's
// Figure 5: a finite set of nodes, each running the same deterministic
// state machine with two kinds of handlers — a message handler HM executed
// in response to a network message, and an internal-action handler HA
// executed in response to a node-local event such as a timer or an
// application call.
//
// Everything above this package — the global baseline checker, the local
// model checker (LMC), the live discrete-event runtime and the online
// controller — executes protocols exclusively through these interfaces.
package model

import (
	"fmt"
	"strings"

	"lmc/internal/codec"
)

// NodeID identifies a node. Nodes of an N-node system are numbered 0..N-1.
type NodeID int

// String formats the id the way the paper's scenarios do (N1, N2, ...).
func (n NodeID) String() string { return fmt.Sprintf("N%d", int(n)+1) }

// Message is a network message in flight. The paper represents an in-flight
// message as a (destination, content) pair; the content includes the sender.
// Messages must be immutable once emitted and must encode canonically.
type Message interface {
	codec.Encoder
	// Src is the sending node.
	Src() NodeID
	// Dst is the destination node.
	Dst() NodeID
	// String renders the message for traces and bug reports.
	String() string
}

// Action is an internal node event (timer, application call). Unlike a
// message handler, an action handler consumes no network message.
type Action interface {
	codec.Encoder
	// Node is the node on which the action executes.
	Node() NodeID
	// String renders the action for traces and bug reports.
	String() string
}

// State is one node's local state. States must encode canonically: two
// semantically equal states must produce identical bytes, because both
// checkers identify states by the fingerprint of their encoding.
type State interface {
	codec.Encoder
	// Clone returns a copy a handler may write to without the original
	// changing — checkers clone before invoking handlers. The copy may
	// share anything with the original that neither side will ever write
	// in place (see Fingerprinter for what a sharing state can carry).
	Clone() State
	// String renders the state compactly for traces.
	String() string
}

// Machine is a protocol: the behavior functions HM and HA of Figure 5.
//
// Determinism contract: given equal (node, state, message/action) inputs,
// handlers must produce equal outputs. Any nondeterminism (randomness,
// wall-clock time) must be folded into the Action value itself so that a
// re-execution of the recorded event replays identically (paper §4.1,
// footnote 3).
//
// Mutation contract: the state passed to HandleMessage/HandleAction is a
// private copy owned by the handler; it may be mutated and returned, or a
// fresh state may be returned instead. Returning it is the only way a
// handler may keep it: no emitted message and nothing the handler retains
// may point into it, because a checker may reuse a copy it did not keep for
// a later handler call (Recycler).
//
// Rejection contract: a handler returns a nil state to signal a node-local
// assertion failure, e.g. receipt of a message that is impossible in the
// handler's current state. Per §4.2 ("Local assertions"), LMC discards such
// states: the conservative delivery policy of the shared network routinely
// delivers messages to node states that could never receive them in a real
// run, and the assertion marks the resulting state invalid rather than
// buggy. The global checker treats a nil state as a disabled transition.
type Machine interface {
	// Name identifies the protocol in reports.
	Name() string
	// NumNodes is the number of nodes in the configured system.
	NumNodes() int
	// Init returns node n's initial state.
	Init(n NodeID) State
	// HandleMessage executes HM: node n in state s receives message m.
	// It returns the successor state (nil to reject) and emitted messages.
	HandleMessage(n NodeID, s State, m Message) (State, []Message)
	// Actions enumerates the internal actions enabled in state s of node n.
	// The slice must be freshly allocated or immutable.
	Actions(n NodeID, s State) []Action
	// HandleAction executes HA: node n in state s performs action a.
	HandleAction(n NodeID, s State, a Action) (State, []Message)
}

// Fingerprinter is an optional State capability: a state that carries the
// fingerprint of its own encoding, so that the successor of a handler that
// wrote nothing is identified without encoding or hashing it. StateFingerprint
// is its only consumer.
//
// Contract: Fingerprint returns exactly codec.HashOf of the state, memoized.
// Clone copies the memo; every write to the state — the implementation's
// own mutators, which handlers must go through — clears it. Clearing on a
// write that stored an equal value is fine (the state is re-hashed to the
// same fingerprint); keeping the memo across a write that changed the
// encoding is the one unsound thing, because both checkers identify states
// by this value.
//
// Publication: the first Fingerprint call on a state writes the memo, later
// calls only read it. A checker therefore takes a state's fingerprint on the
// goroutine that created the state, before any other goroutine can reach it
// (LMC: addNext fingerprints a successor before space.add publishes it, and
// a start state before the first sweep); from then on the state is
// immutable and concurrent Fingerprint calls are reads.
type Fingerprinter interface {
	Fingerprint() codec.Fingerprint
}

// Recycler is an optional State capability: a state whose copy can be
// written into the storage of another copy instead of a fresh allocation.
// LMC's exploration hands every handler a copy of a visited state, and most
// of those copies are thrown away — the handler rejected the event, or its
// successor was already visited — so a worker keeps one such copy and has
// the next handler's copy written into it.
//
// Contract: CloneInto returns what Clone returns, written into dst when dst
// is of the receiver's own type (dst's previous contents are lost), a fresh
// Clone otherwise. Recycling overwrites the struct dst points to and nothing
// it references, so it is sound only if that struct is reachable from
// nowhere else once its handler returned: a handler keeps no reference to
// the state it was given, and no message it emits points into that struct.
// Slices of the state's stored collections may be shared freely — their
// backing arrays are immutable (the sharing rule that makes Clone a struct
// copy) and recycling never writes them. A checker recycles only a copy it
// made itself and did not keep: never a state that entered a visited set,
// never a parent, never a state a handler returned in place of its copy.
type Recycler interface {
	CloneInto(dst State) State
}

// Symmetric is an optional Machine capability declaring role symmetry. The
// precise contract is invariant slot-symmetry: every invariant the protocol
// is checked against must give the same verdict when the states of two
// class members are swapped within the system-state vector (the invariant
// compares class members' states without privileging individual slots).
// Checkers with symmetry reduction enabled use the classes to canonicalize
// system-state fingerprints under within-class permutation
// (codec.Canonicalizer) and to skip permuted system-state arrangements whose
// canonical representative is already covered — each skipped arrangement's
// verdict is derived from its representative's (clean) or re-checked
// individually at the fixpoint (violating), so nothing beyond invariant
// slot-symmetry is assumed about the dynamics.
//
// Declare only genuinely interchangeable roles: Paxos acceptors yes, a
// distinguished proposer/leader/coordinator no, topology-pinned nodes
// (chain positions, tree levels) no. Classes must be disjoint; classes with
// fewer than two members are ignored. Machines that do not implement the
// interface get no symmetry reduction (always sound).
type Symmetric interface {
	// SymmetryClasses lists the interchangeable node classes for the
	// configured system size. The result must be deterministic.
	SymmetryClasses() [][]NodeID
}

// RawReplayer is an optional Machine capability for machines that wrap a
// real implementation behind an adapter (package actorcheck). ReplayRaw
// re-drives an event sequence through the wrapped implementation directly —
// live instances mutating in place, no per-event snapshot/restore — and
// returns the final system state. Checkers that find a violation witness on
// such a machine run the schedule through ReplayRaw in addition to the
// model-level replay, so a confirmed bug is one the uninstrumented code
// actually exhibits, not an artifact of the adapter's interception seam.
//
// ReplayRaw must not mutate start and must be safe for concurrent calls
// with distinct event slices (soundness verification runs on a worker pool).
type RawReplayer interface {
	ReplayRaw(start SystemState, inflight []Message, events []Event) (SystemState, error)
}

// SystemState is the tuple of node local states (the paper's L): what the
// user-specified invariants are checked against. Index i holds node i's
// state.
type SystemState []State

// Clone deep-copies every node state.
func (ss SystemState) Clone() SystemState {
	out := make(SystemState, len(ss))
	for i, s := range ss {
		out[i] = s.Clone()
	}
	return out
}

// Fingerprint combines the fingerprints of the node states in order. The
// value equals codec.Combine over the per-state StateFingerprints, which
// lets checkers derive a system fingerprint from memoized node-state
// fingerprints without re-encoding any state.
func (ss SystemState) Fingerprint() codec.Fingerprint {
	h := codec.NewHasher()
	for _, s := range ss {
		h.Add(StateFingerprint(s))
	}
	return h.Sum()
}

// String renders the system state as node states joined by " | ".
func (ss SystemState) String() string {
	parts := make([]string, len(ss))
	for i, s := range ss {
		parts[i] = fmt.Sprintf("%v:%s", NodeID(i), s.String())
	}
	return strings.Join(parts, " | ")
}

// InitialSystem builds the system state of all nodes' initial states.
func InitialSystem(m Machine) SystemState {
	ss := make(SystemState, m.NumNodes())
	for i := range ss {
		ss[i] = m.Init(NodeID(i))
	}
	return ss
}

// EventKind discriminates the two handler families of Figure 5.
type EventKind uint8

const (
	// NetworkEvent delivers a message (HM).
	NetworkEvent EventKind = iota + 1
	// InternalEvent performs a node-local action (HA).
	InternalEvent
)

// String names the kind for traces.
func (k EventKind) String() string {
	switch k {
	case NetworkEvent:
		return "recv"
	case InternalEvent:
		return "act"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is one enabled transition of the system: either the delivery of a
// message to its destination node, or an internal action of a node.
type Event struct {
	Kind EventKind
	Node NodeID  // the node whose handler executes
	Msg  Message // set iff Kind == NetworkEvent
	Act  Action  // set iff Kind == InternalEvent
}

// RecvEvent builds a message-delivery event.
func RecvEvent(m Message) Event {
	return Event{Kind: NetworkEvent, Node: m.Dst(), Msg: m}
}

// ActEvent builds an internal-action event.
func ActEvent(a Action) Event {
	return Event{Kind: InternalEvent, Node: a.Node(), Act: a}
}

// Encode writes the event canonically: kind, node, then payload.
func (e Event) Encode(w *codec.Writer) {
	w.Byte(byte(e.Kind))
	w.Int(int(e.Node))
	switch e.Kind {
	case NetworkEvent:
		e.Msg.Encode(w)
	case InternalEvent:
		e.Act.Encode(w)
	}
}

// Fingerprint identifies the event; it is what LMC stores in predecessor
// pointers instead of the event itself (§4.2: "Instead of the actual event,
// its hash is added into the predecessor pointers").
func (e Event) Fingerprint() codec.Fingerprint { return codec.HashOf(e) }

// String renders the event for traces: "N2 recv Prepare{...}" or
// "N1 act Propose{...}".
func (e Event) String() string {
	switch e.Kind {
	case NetworkEvent:
		return fmt.Sprintf("%v %v %s", e.Node, e.Kind, e.Msg.String())
	case InternalEvent:
		return fmt.Sprintf("%v %v %s", e.Node, e.Kind, e.Act.String())
	default:
		return fmt.Sprintf("%v <invalid event>", e.Node)
	}
}

// Apply executes the event's handler on a Clone of s via machine m,
// returning the successor (nil if the handler rejected) and emissions.
func (e Event) Apply(m Machine, s State) (State, []Message) { return e.Handle(m, s.Clone()) }

// Handle executes the event's handler via machine m on s itself: a private
// copy of the node state that the caller made (Apply's Clone, or a recycled
// copy — see Recycler) and that the handler may write. It is the one place
// a handler is called from.
func (e Event) Handle(m Machine, s State) (State, []Message) {
	switch e.Kind {
	case NetworkEvent:
		return m.HandleMessage(e.Node, s, e.Msg)
	case InternalEvent:
		return m.HandleAction(e.Node, s, e.Act)
	default:
		return nil, nil
	}
}

// MessageFingerprint hashes a message's canonical encoding.
func MessageFingerprint(m Message) codec.Fingerprint { return codec.HashOf(m) }

// StateFingerprint is the hash of a state's canonical encoding: the one the
// state carries if it is a Fingerprinter, computed here otherwise.
func StateFingerprint(s State) codec.Fingerprint {
	if f, ok := s.(Fingerprinter); ok {
		return f.Fingerprint()
	}
	return codec.HashOf(s)
}
