// Package tree implements the simple distributed tree algorithm of the
// paper's §2 primer (Figures 2–4): a root node initiates a message destined
// for a target node and flips its state to "sent"; every node receiving the
// message forwards it to its children; the target flips to "received".
//
// The protocol exists to contrast the two approaches on a toy: the global
// checker materializes a dozen global states, the local checker only a
// handful of system states — one of which ("----r": target received before
// the root sent) is invalid and must be rejected a posteriori by soundness
// verification.
package tree

import (
	"fmt"

	"lmc/internal/codec"
	"lmc/internal/model"
	"lmc/internal/spec"
)

// Status is a node's phase in the run.
type Status uint8

const (
	// Idle is the initial "-" state of Figures 3 and 4.
	Idle Status = iota
	// Sent marks the root after initiating ("s").
	Sent
	// Received marks the target after delivery ("r").
	Received
)

func (s Status) String() string {
	switch s {
	case Sent:
		return "s"
	case Received:
		return "r"
	default:
		return "-"
	}
}

// State is one node's local state: its status plus whether it has already
// forwarded the message. The Forwarded flag matters beyond bookkeeping:
// because the checker's soundness verification ignores self-referencing
// predecessor edges (the paper's §4.2 simplification), an event that emits
// messages without changing the emitter's state would be invisible to it —
// recording the forward makes the event state-changing, the way Mace
// services record what they have relayed.
type State struct {
	St        Status
	Forwarded bool
}

// Encode implements codec.Encoder.
func (s *State) Encode(w *codec.Writer) {
	w.Byte(byte(s.St))
	w.Bool(s.Forwarded)
}

// Clone implements model.State.
func (s *State) Clone() model.State { c := *s; return &c }

// String implements model.State.
func (s *State) String() string {
	if s.Forwarded && s.St == Idle {
		return "f"
	}
	return s.St.String()
}

// Forward is the single protocol message, forwarded down the tree.
type Forward struct {
	From, To model.NodeID
}

// Src implements model.Message.
func (m Forward) Src() model.NodeID { return m.From }

// Dst implements model.Message.
func (m Forward) Dst() model.NodeID { return m.To }

// Encode implements codec.Encoder.
func (m Forward) Encode(w *codec.Writer) {
	w.String("tree.Forward")
	w.Int(int(m.From))
	w.Int(int(m.To))
}

// String implements model.Message.
func (m Forward) String() string { return fmt.Sprintf("Forward{%v->%v}", m.From, m.To) }

// Initiate is the root's application call that starts the run.
type Initiate struct {
	Root model.NodeID
}

// Node implements model.Action.
func (a Initiate) Node() model.NodeID { return a.Root }

// Encode implements codec.Encoder.
func (a Initiate) Encode(w *codec.Writer) {
	w.String("tree.Initiate")
	w.Int(int(a.Root))
}

// String implements model.Action.
func (a Initiate) String() string { return "Initiate{}" }

// Machine is the tree protocol over a fixed topology.
type Machine struct {
	children [][]model.NodeID
	root     model.NodeID
	target   model.NodeID
}

// New builds a tree machine. children[i] lists node i's children; the root
// initiates, the target flips to Received. The default paper-style tree is
// available via NewPaperTree.
func New(children [][]model.NodeID, root, target model.NodeID) *Machine {
	return &Machine{children: children, root: root, target: target}
}

// NewPaperTree builds the 5-node tree used throughout §2: node 0 is the
// root with children 1 and 2; node 1 has children 3 and 4; node 4 is the
// target.
func NewPaperTree() *Machine {
	return New([][]model.NodeID{
		{1, 2}, // node 0
		{3, 4}, // node 1
		{},     // node 2
		{},     // node 3
		{},     // node 4
	}, 0, 4)
}

// Name implements model.Machine.
func (t *Machine) Name() string { return "tree" }

// NumNodes implements model.Machine.
func (t *Machine) NumNodes() int { return len(t.children) }

// Root returns the initiating node.
func (t *Machine) Root() model.NodeID { return t.root }

// Target returns the receiving node.
func (t *Machine) Target() model.NodeID { return t.target }

// Init implements model.Machine.
func (t *Machine) Init(model.NodeID) model.State { return &State{St: Idle} }

// HandleMessage implements model.Machine: forward to children; the target
// additionally flips to Received.
func (t *Machine) HandleMessage(n model.NodeID, s model.State, m model.Message) (model.State, []model.Message) {
	st := s.(*State)
	if _, ok := m.(Forward); !ok {
		return nil, nil // unknown message: local assertion
	}
	var out []model.Message
	if !st.Forwarded {
		for _, c := range t.children[n] {
			out = append(out, Forward{From: n, To: c})
		}
		st.Forwarded = true
	}
	if n == t.target {
		st.St = Received
	}
	return st, out
}

// Actions implements model.Machine: the root may initiate exactly once.
func (t *Machine) Actions(n model.NodeID, s model.State) []model.Action {
	st := s.(*State)
	if n == t.root && st.St == Idle {
		return []model.Action{Initiate{Root: t.root}}
	}
	return nil
}

// HandleAction implements model.Machine.
func (t *Machine) HandleAction(n model.NodeID, s model.State, a model.Action) (model.State, []model.Message) {
	st := s.(*State)
	if _, ok := a.(Initiate); !ok || n != t.root || st.St != Idle {
		return nil, nil
	}
	st.St = Sent
	var out []model.Message
	for _, c := range t.children[t.root] {
		out = append(out, Forward{From: t.root, To: c})
	}
	return st, out
}

// CausalityInvariant is the system property "if the target has received,
// the root must have sent". It holds in every real run; the local checker
// nevertheless materializes the combination (Idle root, Received target) —
// the "----r" state of Figure 4 — as a preliminary violation that soundness
// verification must reject.
func (t *Machine) CausalityInvariant() spec.Invariant {
	return spec.InvariantFunc{
		InvName: "tree-causality",
		Fn: func(ss model.SystemState) *spec.Violation {
			rootSt := ss[t.root].(*State)
			targetSt := ss[t.target].(*State)
			if targetSt.St == Received && rootSt.St != Sent {
				return spec.Violate("tree-causality", ss,
					"target %v received but root %v never sent", t.target, t.root)
			}
			return nil
		},
	}
}

// Reduction is the LMC-OPT projection for CausalityInvariant: only the root
// and target states matter, and only the (not-sent, received) pattern can
// violate.
type Reduction struct {
	Root, Target model.NodeID
}

// Interest implements spec.Reduction.
func (r Reduction) Interest(n model.NodeID, s model.State) (spec.Interest, bool) {
	st := s.(*State)
	switch n {
	case r.Root:
		if st.St != Sent {
			return "root-unsent", true
		}
	case r.Target:
		if st.St == Received {
			return "target-received", true
		}
	}
	return nil, false
}

// Conflict implements spec.Reduction.
func (r Reduction) Conflict(a, b spec.Interest) bool {
	return (a == "root-unsent" && b == "target-received") ||
		(b == "root-unsent" && a == "target-received")
}

// InterestKey implements spec.Keyer: the interest is its own key.
func (Reduction) InterestKey(i spec.Interest) string { return i.(string) }

// SymmetryClasses implements model.Symmetric with no classes: the tree
// topology pins every node to a position (parent/child edges, the root and
// the distinguished target), so no two nodes are interchangeable. The
// explicit declaration documents the decision.
func (t *Machine) SymmetryClasses() [][]model.NodeID { return nil }
