package core

import (
	"testing"

	"lmc/internal/model"
	"lmc/internal/protocols/paxos"
	"lmc/internal/protocols/twophase"
)

func TestParseReductions(t *testing.T) {
	sym := Reductions{Symmetry: true}
	cases := []struct {
		in   string
		want Reductions
		err  bool
	}{
		{"", Reductions{}, false},
		{"none", Reductions{}, false},
		{"off", Reductions{}, false},
		{"sym", sym, false},
		{"symmetry", sym, false},
		{"all", sym, false},
		// The deleted partial-order reduction is accepted and ignored:
		// stored job specs and scripts still name it.
		{"por", Reductions{}, false},
		{"partial-order", Reductions{}, false},
		{"sym,por", sym, false},
		{"por,sym", sym, false},
		{" sym , por ", sym, false},
		{"bogus", Reductions{}, true},
		{"sym,bogus", Reductions{}, true},
		{"por,bogus", Reductions{}, true},
	}
	for _, tc := range cases {
		got, err := ParseReductions(tc.in)
		if tc.err != (err != nil) {
			t.Fatalf("ParseReductions(%q) error = %v, want error %v", tc.in, err, tc.err)
		}
		if got != tc.want {
			t.Fatalf("ParseReductions(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
	for _, r := range []Reductions{{}, sym} {
		back, err := ParseReductions(r.String())
		if err != nil || back != r {
			t.Fatalf("round trip %+v via %q failed: %+v err=%v", r, r.String(), back, err)
		}
	}
}

func TestBuildCanonicalizerRejectsMalformed(t *testing.T) {
	if c := buildCanonicalizer(3, [][]model.NodeID{{1, 3}}); c != nil {
		t.Fatal("out-of-range class accepted")
	}
	if c := buildCanonicalizer(3, [][]model.NodeID{{1, 1}}); c != nil {
		t.Fatal("duplicated member accepted")
	}
	if c := buildCanonicalizer(4, [][]model.NodeID{{1, 2}, {2, 3}}); c != nil {
		t.Fatal("overlapping classes accepted")
	}
	if c := buildCanonicalizer(4, [][]model.NodeID{{1}, {2}}); c != nil {
		t.Fatal("all-trivial declaration should yield nil")
	}
	if c := buildCanonicalizer(4, [][]model.NodeID{{1, 2, 3}}); c == nil {
		t.Fatal("valid declaration rejected")
	}
}

// bugSet projects a result's bugs to comparable (invariant, system
// fingerprint) identities, order-independently.
func bugSet(res *Result) map[string]int {
	out := make(map[string]int)
	for _, b := range res.Bugs {
		out[b.Violation.Invariant+"/"+b.System.Fingerprint().String()]++
	}
	return out
}

func assertSameBugSet(t *testing.T, base, got *Result) {
	t.Helper()
	bs, gs := bugSet(base), bugSet(got)
	for k, n := range bs {
		if gs[k] != n {
			t.Fatalf("bug %s: unreduced found %d, reduced found %d", k, n, gs[k])
		}
	}
	for k, n := range gs {
		if bs[k] != n {
			t.Fatalf("bug %s: reduced found %d, unreduced found %d", k, n, bs[k])
		}
	}
}

// TestSymmetryReductionParity: on a clean 4-node Paxos space with a
// distinguished proposer and three interchangeable acceptors, the symmetry
// reduction must halve (at least) the materialized system states while
// agreeing on completeness and verdicts, and must leave node-state
// exploration untouched.
func TestSymmetryReductionParity(t *testing.T) {
	m := paxos.New(4, paxos.NoBug, paxos.OnceAt{Node: 0, Index: 0, Value: 7})
	start := model.InitialSystem(m)
	opt := Options{Invariant: paxos.Agreement()}
	base := Check(m, start, opt)
	ropt := opt
	ropt.Reduce = Reductions{Symmetry: true}
	red := Check(m, start, ropt)

	if base.Complete != red.Complete {
		t.Fatalf("completeness diverged: base=%v reduced=%v", base.Complete, red.Complete)
	}
	if base.Stats.NodeStates != red.Stats.NodeStates ||
		base.Stats.Transitions != red.Stats.Transitions {
		t.Fatalf("reduction changed local exploration:\nbase: %s\nred:  %s",
			base.Stats.String(), red.Stats.String())
	}
	assertSameBugSet(t, base, red)
	if red.Stats.SymmetrySkips == 0 {
		t.Fatal("no symmetry skips on a 3-acceptor space")
	}
	if 2*red.Stats.SystemStates > base.Stats.SystemStates {
		t.Fatalf("reduction below 2x: base=%d reduced=%d",
			base.Stats.SystemStates, red.Stats.SystemStates)
	}
	t.Logf("system states: base=%d reduced=%d (%.1f%%), skips=%d",
		base.Stats.SystemStates, red.Stats.SystemStates,
		100*float64(red.Stats.SystemStates)/float64(base.Stats.SystemStates),
		red.Stats.SymmetrySkips)
}

// TestSymmetryOrbitSweep: on a bug-bearing space whose violating states
// have nontrivial orbits, the fixpoint orbit sweep must recover every
// arrangement-specific bug the unreduced run confirms.
func TestSymmetryOrbitSweep(t *testing.T) {
	m := twophase.New(4, twophase.MajorityBug, 2)
	start := model.InitialSystem(m)
	opt := Options{Invariant: twophase.Atomicity()}
	base := Check(m, start, opt)
	if len(base.Bugs) == 0 {
		t.Fatal("seed scenario found no bugs; test is vacuous")
	}
	ropt := opt
	ropt.Reduce = Reductions{Symmetry: true}
	red := Check(m, start, ropt)

	if base.Complete != red.Complete {
		t.Fatalf("completeness diverged: base=%v reduced=%v", base.Complete, red.Complete)
	}
	assertSameBugSet(t, base, red)
	if red.Stats.SymmetrySkips == 0 {
		t.Fatal("no symmetry skips despite a declared class")
	}
	if red.Stats.OrbitChecks == 0 {
		t.Fatal("violating orbits recorded no sweep checks")
	}
	t.Logf("system states: base=%d reduced=%d, skips=%d orbitChecks=%d bugs=%d",
		base.Stats.SystemStates, red.Stats.SystemStates,
		red.Stats.SymmetrySkips, red.Stats.OrbitChecks, len(red.Bugs))
}

// TestSymmetryInactiveWithoutDeclaration: machines without a usable
// declaration run unreduced even when the flag is on.
func TestSymmetryInactiveWithoutDeclaration(t *testing.T) {
	m := paxos.New(3, paxos.NoBug, paxos.ActiveIndex{MaxPerNode: 1})
	start := model.InitialSystem(m)
	opt := Options{
		Invariant:      paxos.Agreement(),
		Reduce:         Reductions{Symmetry: true},
		MaxTransitions: 2000,
	}
	res := Check(m, start, opt)
	if res.Stats.SymmetrySkips != 0 || res.Stats.OrbitChecks != 0 {
		t.Fatalf("symmetry applied without a declaration: %s", res.Stats.String())
	}
	if _, ok := interface{}(m).(model.Symmetric); !ok {
		t.Fatal("paxos machine no longer declares model.Symmetric")
	}
	if cls := m.SymmetryClasses(); cls != nil {
		t.Fatalf("ActiveIndex driver must declare no classes, got %v", cls)
	}
}

// TestProtocolDeclarations: the shipped declarations match the documented
// role analysis.
func TestProtocolDeclarations(t *testing.T) {
	gen := paxos.New(4, paxos.NoBug, paxos.OnceAt{Node: 0, Index: 0, Value: 7})
	if got := gen.SymmetryClasses(); len(got) != 1 || len(got[0]) != 3 {
		t.Fatalf("paxos OnceAt classes = %v, want one 3-member class", got)
	}
	if c := buildCanonicalizer(gen.NumNodes(), gen.SymmetryClasses()); c == nil {
		t.Fatal("paxos OnceAt declaration did not build")
	}
	tp := twophase.New(4, twophase.MajorityBug, 2)
	cls := tp.SymmetryClasses()
	if len(cls) != 2 || len(cls[0]) != 2 || len(cls[1]) != 1 {
		t.Fatalf("twophase classes = %v, want yes={1,3} no={2}", cls)
	}
	if c := buildCanonicalizer(tp.NumNodes(), cls); c == nil || c.NumClasses() != 1 {
		t.Fatal("twophase declaration should keep exactly the yes-voter class")
	}
}
