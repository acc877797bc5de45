package paxos

import (
	"fmt"
	"strings"

	"lmc/internal/model"
	"lmc/internal/spec"
)

// AgreementName names the Paxos safety invariant.
const AgreementName = "paxos-agreement"

// Agreement is the Paxos invariant of §5: "no two nodes will choose
// different values for the same index".
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
		// Most node states in an exploration have chosen nothing;
		// skip the pairwise scan entirely for them.
		if len(si.Chosen) == 0 {
			continue
		}
		for j := i + 1; j < len(ss); j++ {
			sj := ss[j].(*State)
			if len(sj.Chosen) == 0 {
				continue
			}
			if v := conflictScan(ss, i, j, si.Chosen, sj.Chosen); v != nil {
				return v
			}
		}
	}
	return nil
}

// conflictScan merge-scans two sorted choice sequences for a common index
// with different values. It allocates nothing on the (overwhelmingly common)
// agreeing path.
func conflictScan(ss model.SystemState, i, j int, pi, pj []At[int]) *spec.Violation {
	a, b := 0, 0
	for a < len(pi) && b < len(pj) {
		switch {
		case pi[a].Index < pj[b].Index:
			a++
		case pi[a].Index > pj[b].Index:
			b++
		default:
			if pi[a].Value != pj[b].Value {
				return spec.Violate(AgreementName, ss,
					"index %d: %v chose %d but %v chose %d",
					pi[a].Index, model.NodeID(i), pi[a].Value, model.NodeID(j), pj[b].Value)
			}
			a++
			b++
		}
	}
	return nil
}

// chosenInterest is the LMC-OPT projection of a node state: the values it
// has chosen, per index, sorted by index.
type chosenInterest []At[int]

// Reduction is the invariant-specific system-state creation rule of §4.2
// (the LMC-OPT configuration): "we map the node states to the values that
// are chosen in them. Because most of the node states have not chosen any
// value, lots of them will not be included in this mapping. When creating
// system states, we thus select only the node states that at least two of
// them are mapped to different values."
type Reduction struct{}

// Interest implements spec.Reduction.
func (Reduction) Interest(_ model.NodeID, s model.State) (spec.Interest, bool) {
	st, ok := s.(*State)
	if !ok || len(st.Chosen) == 0 {
		return nil, false
	}
	// Shared, not copied: a stored collection is never written again (the
	// sharing rule on State).
	return chosenInterest(st.Chosen), true
}

// Conflict implements spec.Reduction: two interests conflict when they
// chose different values for a common index.
func (Reduction) Conflict(a, b spec.Interest) bool {
	ca, ok := a.(chosenInterest)
	if !ok {
		return false
	}
	cb, ok := b.(chosenInterest)
	if !ok {
		return false
	}
	x, y := 0, 0
	for x < len(ca) && y < len(cb) {
		switch {
		case ca[x].Index < cb[y].Index:
			x++
		case ca[x].Index > cb[y].Index:
			y++
		default:
			if ca[x].Value != cb[y].Value {
				return true
			}
			x++
			y++
		}
	}
	return false
}

// InterestKey implements spec.Keyer: the canonical rendering of the chosen
// set, so node states that chose the same values group together.
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

// ExtractState asserts a model.State to *State, for tests and tools.
func ExtractState(s model.State) (*State, error) {
	st, ok := s.(*State)
	if !ok {
		return nil, fmt.Errorf("paxos: not a paxos state: %T", s)
	}
	return st, nil
}
