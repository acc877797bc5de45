package core

import (
	"testing"

	"lmc/internal/codec"
	"lmc/internal/model"
	"lmc/internal/protocols/paxos"
	"lmc/internal/protocols/tree"
	"lmc/internal/protocols/twophase"
)

func TestParseReductions(t *testing.T) {
	cases := []struct {
		in   string
		want Reductions
		err  bool
	}{
		{"", Reductions{}, false},
		{"none", Reductions{}, false},
		{"off", Reductions{}, false},
		{"sym", Reductions{Symmetry: true}, false},
		{"symmetry", Reductions{Symmetry: true}, false},
		{"por", Reductions{PartialOrder: true}, false},
		{"partial-order", Reductions{PartialOrder: true}, false},
		{"sym,por", Reductions{Symmetry: true, PartialOrder: true}, false},
		{"por,sym", Reductions{Symmetry: true, PartialOrder: true}, false},
		{" sym , por ", Reductions{Symmetry: true, PartialOrder: true}, false},
		{"all", Reductions{Symmetry: true, PartialOrder: true}, false},
		{"bogus", Reductions{}, true},
		{"sym,bogus", Reductions{}, true},
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
	for _, r := range []Reductions{{}, {Symmetry: true}, {PartialOrder: true}, {Symmetry: true, PartialOrder: true}} {
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

// TestPartialOrderParity: POR must not change which bugs are confirmed or
// which system states are materialized — only the sequence search. The
// paper tree with seeded in-flight messages has a leaf member that emits
// nothing, so it is provably detachable from every interleaving.
func TestPartialOrderParity(t *testing.T) {
	m := tree.NewPaperTree()
	start := model.InitialSystem(m)
	inflight := []model.Message{
		tree.Forward{From: 0, To: 1},
		tree.Forward{From: 0, To: 2},
	}
	opt := Options{
		Invariant:       m.CausalityInvariant(),
		InitialMessages: inflight,
	}
	base := Check(m, start, opt)
	if len(base.Bugs) == 0 {
		t.Fatal("seed scenario found no bugs; test is vacuous")
	}
	ropt := opt
	ropt.Reduce = Reductions{PartialOrder: true}
	red := Check(m, start, ropt)

	if base.Complete != red.Complete {
		t.Fatalf("completeness diverged: base=%v reduced=%v", base.Complete, red.Complete)
	}
	if base.Stats.SystemStates != red.Stats.SystemStates ||
		base.Stats.PreliminaryViolations != red.Stats.PreliminaryViolations {
		t.Fatalf("POR changed materialization:\nbase: %s\nred:  %s",
			base.Stats.String(), red.Stats.String())
	}
	assertSameBugSet(t, base, red)
	if red.Stats.PORDetached == 0 {
		t.Fatal("no member detached on a fan-out tree")
	}
	t.Logf("sequences: base=%d reduced=%d, detached=%d deduped=%d",
		base.Stats.SequencesChecked, red.Stats.SequencesChecked,
		red.Stats.PORDetached, red.Stats.PORPathsDeduped)
}

// TestCombinedReductions: sym+por together on the bug-bearing 2PC space —
// the end-to-end configuration the -reduce=sym,por flag enables.
func TestCombinedReductions(t *testing.T) {
	m := twophase.New(4, twophase.MajorityBug, 2)
	start := model.InitialSystem(m)
	opt := Options{Invariant: twophase.Atomicity()}
	base := Check(m, start, opt)
	ropt := opt
	ropt.Reduce = Reductions{Symmetry: true, PartialOrder: true}
	red := Check(m, start, ropt)
	if base.Complete != red.Complete {
		t.Fatalf("completeness diverged: base=%v reduced=%v", base.Complete, red.Complete)
	}
	assertSameBugSet(t, base, red)
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

// TestAppendValidAccounting: appendValid must leave the pool untouched on
// failure and apply the exact delta on success.
func TestAppendValidAccounting(t *testing.T) {
	fpA, fpB := codec.Fingerprint(1), codec.Fingerprint(2)
	net := map[codec.Fingerprint]int{fpA: 1}
	from := &nodeState{node: 1} // the schedule's events name their edge's source node
	p := []pred{
		{prev: from, kind: model.NetworkEvent, msgFP: fpA, generated: []codec.Fingerprint{fpB}},
		{prev: from, kind: model.NetworkEvent, msgFP: fpB},
	}
	ok, sched := appendValid(net, p)
	if !ok || len(sched) != 2 || sched[0].Node != 1 || sched[1].Kind != model.NetworkEvent {
		t.Fatalf("valid append rejected: ok=%v, %d events", ok, len(sched))
	}
	if net[fpA] != 0 || net[fpB] != 0 {
		t.Fatalf("pool after append: %v", net)
	}
	bad := []pred{{kind: model.NetworkEvent, msgFP: fpA}}
	ok, _ = appendValid(net, bad)
	if ok {
		t.Fatal("append consumed a missing message")
	}
	if net[fpA] != 0 || net[fpB] != 0 {
		t.Fatalf("failed append mutated the pool: %v", net)
	}
}
