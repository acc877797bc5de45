// Package spec defines what the model checkers check: system-wide
// invariants over system states, node-local invariants, and — for the
// optimized local checker (LMC-OPT) — reductions that let the checker skip
// system states on which a given invariant can inherently not be violated
// (paper §4: "we can design invariant-specific system state creation to
// bypass the system states that could not possibly violate the invariant").
package spec

import (
	"fmt"

	"lmc/internal/model"
)

// Violation describes a failed invariant on a concrete system state.
type Violation struct {
	Invariant string
	Detail    string
	System    model.SystemState
}

// Error renders the violation.
func (v *Violation) Error() string {
	return fmt.Sprintf("invariant %q violated: %s", v.Invariant, v.Detail)
}

// Invariant is a user-specified safety property over system states. Check
// returns nil when the invariant holds and a non-nil *Violation otherwise.
// Invariants are deliberately defined on the system state only — never on
// the network — which is the observation the whole local approach rests on
// (paper §1, observation (1)).
type Invariant interface {
	// Name identifies the invariant in reports.
	Name() string
	// Check evaluates the invariant on a system state.
	Check(ss model.SystemState) *Violation
}

// InvariantFunc adapts a function to the Invariant interface.
type InvariantFunc struct {
	InvName string
	Fn      func(ss model.SystemState) *Violation
}

// Name implements Invariant.
func (f InvariantFunc) Name() string { return f.InvName }

// Check implements Invariant.
func (f InvariantFunc) Check(ss model.SystemState) *Violation { return f.Fn(ss) }

// Violate is a helper for invariant implementations: it builds a *Violation
// referencing the offending system state. The state is stored as-is, not
// cloned: checkers materialize system states from node states that are
// immutable once visited, and they clone at report time — a checker can
// discard millions of preliminary violations, so building one must stay
// allocation-light.
func Violate(name string, ss model.SystemState, format string, args ...any) *Violation {
	return &Violation{
		Invariant: name,
		Detail:    fmt.Sprintf(format, args...),
		System:    ss,
	}
}

// LocalInvariant is a property of a single node state, such as RandTree's
// "the children and siblings sets are disjoint" (paper §4). A local
// invariant can be checked during exploration without materializing any
// system state at all.
type LocalInvariant interface {
	// Name identifies the invariant in reports.
	Name() string
	// CheckNode evaluates the invariant on one node's state; it returns a
	// non-empty description when violated, "" otherwise.
	CheckNode(n model.NodeID, s model.State) string
}

// LocalInvariantFunc adapts a function to the LocalInvariant interface.
type LocalInvariantFunc struct {
	InvName string
	Fn      func(n model.NodeID, s model.State) string
}

// Name implements LocalInvariant.
func (f LocalInvariantFunc) Name() string { return f.InvName }

// CheckNode implements LocalInvariant.
func (f LocalInvariantFunc) CheckNode(n model.NodeID, s model.State) string {
	return f.Fn(n, s)
}

// Lift turns a local invariant into a system invariant that checks every
// node state. Useful for the global checker; LMC instead checks local
// invariants directly on node states as they are visited, which needs no
// Cartesian combination at all.
func Lift(li LocalInvariant) Invariant {
	return InvariantFunc{
		InvName: li.Name(),
		Fn: func(ss model.SystemState) *Violation {
			for i, s := range ss {
				if msg := li.CheckNode(model.NodeID(i), s); msg != "" {
					return Violate(li.Name(), ss, "node %v: %s", model.NodeID(i), msg)
				}
			}
			return nil
		},
	}
}

// Interest is an invariant-relevant projection of a node state. Interests
// must be usable as map keys is not required; they are only compared
// through Reduction.Conflict.
type Interest any

// Reduction drives LMC-OPT's invariant-specific system-state creation. The
// checker projects each visited node state to an Interest; states whose
// projection reports ok=false can never contribute to a violation and are
// excluded from system-state creation entirely. A system state is
// materialized (and the full invariant evaluated on it) only when at least
// one pair of member interests Conflict.
//
// For the Paxos safety invariant the projection is the set of ⟨index,value⟩
// pairs the node has chosen (empty set → ok=false, "we can ignore the node
// states in which no value is chosen yet"), and two interests conflict when
// they choose different values for the same index.
//
// LMC-OPT requires a Reduction to implement Keyer too: the checker projects
// every visited node state once, groups interesting states by key, and asks
// Conflict once per unordered pair of keys, reading it as symmetric.
type Reduction interface {
	// Interest projects a node state. ok=false excludes the state from
	// system-state creation under this reduction.
	Interest(n model.NodeID, s model.State) (Interest, bool)
	// Conflict reports whether two interests might jointly violate the
	// invariant. It must be conservative: if a pair of node states can
	// appear together in a violating system state, their interests must
	// conflict. (Completeness of LMC-OPT depends on this.)
	Conflict(a, b Interest) bool
}

// Keyer is the extension of Reduction that LMC-OPT requires: a canonical
// grouping key for interests. The checker groups interesting node states by
// key and decides conflicts once per key pair instead of once per state
// combination — the precise shape of the paper's Paxos optimization, which
// "maps the node states to the values that are chosen in them" (§4.2).
// Equal keys must imply interchangeable interests under Conflict.
type Keyer interface {
	// InterestKey returns a canonical key; equal interests (with respect to
	// Conflict) must map to equal keys.
	InterestKey(i Interest) string
}

// KeyedReduction is a Reduction whose interests have canonical keys.
type KeyedReduction interface {
	Reduction
	Keyer
}

// PrefixInvariant is an optional extension of Invariant: an invariant that
// can only fail on a pair of members names the reduction that finds such
// pairs. The contract is the one LMC-OPT's completeness already rests on:
// Check(ss) != nil implies that two members of ss are interesting under
// Pairs() and that their interests Conflict. Conflict is read as symmetric.
//
// LMC-GEN uses it to decide whole subtrees of its Cartesian sweep: once no
// two slots of a subtree can hold conflicting interests, every system state
// in it holds the invariant, and the sweep counts the subtree instead of
// evaluating it leaf by leaf.
type PrefixInvariant interface {
	// Pairs returns the reduction whose conflicting pairs are the only way
	// the invariant can be violated.
	Pairs() KeyedReduction
}
