package onepaxos

import (
	"fmt"
	"strings"

	"lmc/internal/model"
	"lmc/internal/protocols/paxos"
	"lmc/internal/spec"
)

// AgreementName names the 1Paxos safety invariant — the original Paxos
// invariant, as installed in §5.6.
const AgreementName = "1paxos-agreement"

// Agreement is the Paxos safety property over 1Paxos learner state: no two
// nodes choose different values for the same index.
func Agreement() spec.Invariant { return agreement{} }

// agreement fails only on a pair of nodes whose chosen sets conflict, so it
// declares Reduction as its pairs (spec.PrefixInvariant).
type agreement struct{}

// Name implements spec.Invariant.
func (agreement) Name() string { return AgreementName }

// Pairs implements spec.PrefixInvariant.
func (agreement) Pairs() spec.KeyedReduction { return Reduction{} }

// Check implements spec.Invariant.
func (agreement) Check(ss model.SystemState) *spec.Violation {
	for i := 0; i < len(ss); i++ {
		si, ok := ss[i].(*State)
		if !ok {
			return nil
		}
		for _, pi := range si.Chosen {
			for j := i + 1; j < len(ss); j++ {
				sj := ss[j].(*State)
				if vj, ok := sj.HasChosen(pi.Index); ok && vj != pi.Value {
					return spec.Violate(AgreementName, ss,
						"index %d: %v chose %d but %v chose %d",
						pi.Index, model.NodeID(i), pi.Value, model.NodeID(j), vj)
				}
			}
		}
	}
	return nil
}

// chosenInterest is the LMC-OPT projection: the node's chosen values,
// ascending by index (shared with the state, which never writes a stored
// collection again).
type chosenInterest []paxos.At[int]

// Reduction is the invariant-specific system-state creation rule for the
// 1Paxos agreement invariant, mirroring the Paxos one of §4.2.
type Reduction struct{}

// Interest implements spec.Reduction.
func (Reduction) Interest(_ model.NodeID, s model.State) (spec.Interest, bool) {
	st, ok := s.(*State)
	if !ok || len(st.Chosen) == 0 {
		return nil, false
	}
	return chosenInterest(st.Chosen), true
}

// Conflict implements spec.Reduction.
func (Reduction) Conflict(a, b spec.Interest) bool {
	ca, ok := a.(chosenInterest)
	if !ok {
		return false
	}
	cb, ok := b.(chosenInterest)
	if !ok {
		return false
	}
	for _, pa := range ca {
		for _, pb := range cb {
			if pa.Index == pb.Index && pa.Value != pb.Value {
				return true
			}
		}
	}
	return false
}

// InterestKey implements spec.Keyer.
func (Reduction) InterestKey(i spec.Interest) string {
	ci, ok := i.(chosenInterest)
	if !ok {
		return ""
	}
	var b strings.Builder
	for _, p := range ci {
		fmt.Fprintf(&b, "%d=%d;", p.Index, p.Value)
	}
	return b.String()
}

// SeparationName names the configuration invariant of 1Paxos.
const SeparationName = "1paxos-leader-acceptor-separate"

// Separation checks the 1Paxos design requirement that the leader and the
// active acceptor are distinct nodes ("it is necessary that the acceptor
// and leader roles to be assigned to two separate nodes", §5.6) — a
// node-local property, checkable without any Cartesian combination. The
// buggy initialization violates it immediately.
func Separation() spec.LocalInvariant {
	return spec.LocalInvariantFunc{
		InvName: SeparationName,
		Fn: func(n model.NodeID, s model.State) string {
			st, ok := s.(*State)
			if !ok {
				return ""
			}
			if st.Leader == st.Acceptor {
				return fmt.Sprintf("leader and acceptor are both %v", st.Leader)
			}
			return ""
		},
	}
}
