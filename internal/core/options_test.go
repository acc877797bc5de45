package core

import (
	"testing"
	"time"

	"lmc/internal/actordemo"
	"lmc/internal/model"
	"lmc/internal/protocols/onepaxos"
	"lmc/internal/protocols/paxos"
	"lmc/internal/protocols/randtree"
	"lmc/internal/protocols/tree"
	"lmc/internal/protocols/twophase"
	"lmc/internal/spec"
)

func paxosSpace() (*paxos.Machine, model.SystemState) {
	m := paxos.New(3, paxos.NoBug, paxos.OnceAt{Node: 0, Index: 0, Value: 7})
	return m, model.InitialSystem(m)
}

// TestGenOptExploreSameNodeStates: the reduction changes which system
// states are materialized, never which node states are explored.
func TestGenOptExploreSameNodeStates(t *testing.T) {
	m, start := paxosSpace()
	gen := Check(m, start, Options{Invariant: paxos.Agreement()})
	opt := Check(m, start, Options{Invariant: paxos.Agreement(), Reduction: paxos.Reduction{}})
	if gen.Stats.NodeStates != opt.Stats.NodeStates {
		t.Fatalf("node states differ: gen=%d opt=%d", gen.Stats.NodeStates, opt.Stats.NodeStates)
	}
	if gen.Stats.Transitions != opt.Stats.Transitions {
		t.Fatalf("transitions differ: gen=%d opt=%d", gen.Stats.Transitions, opt.Stats.Transitions)
	}
	if opt.Stats.SystemStates >= gen.Stats.SystemStates {
		t.Fatalf("reduction did not reduce: opt=%d gen=%d",
			opt.Stats.SystemStates, gen.Stats.SystemStates)
	}
}

// TestWorkersParity: the worker pool is an implementation detail — every
// worker count must produce bit-for-bit identical results: the same bugs,
// in the same order, with the same system states, and identical
// deterministic counters. No option is set to make that so: a run without a
// Budget never reads the clock, so the sequential reference must first agree
// with itself.
func TestWorkersParity(t *testing.T) {
	treeInflight := tree.NewPaperTree()
	actorBug := actordemo.NewAdapter(4, actordemo.MajorityBug, 2)
	onepaxosBug := onepaxos.New(3, onepaxos.PlusPlusBug, onepaxos.Driver{})
	onepaxosLive, err := onepaxos.PaperLiveState(onepaxosBug)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		m    model.Machine
		// start is the start system state; nil means the initial one.
		start model.SystemState
		opt   Options
	}{
		{
			name: "paxos-gen",
			m:    paxos.New(3, paxos.NoBug, paxos.OnceAt{Node: 0, Index: 0, Value: 7}),
			opt:  Options{Invariant: paxos.Agreement()},
		},
		{
			name: "paxos-opt",
			m:    paxos.New(3, paxos.NoBug, paxos.OnceAt{Node: 0, Index: 0, Value: 7}),
			opt:  Options{Invariant: paxos.Agreement(), Reduction: paxos.Reduction{}},
		},
		{
			// A bug-bearing space: exercises preliminary violations, the
			// speculative confirmation batch, and Bug ordering.
			name: "twophase-majority",
			m:    twophase.New(4, twophase.MajorityBug, 2),
			opt:  Options{Invariant: twophase.Atomicity()},
		},
		{
			// Local invariants + seeded in-flight messages: exercises the
			// deferred local-invariant checks and witness searches.
			name: "tree-inflight",
			m:    treeInflight,
			opt: Options{
				Invariant: treeInflight.CausalityInvariant(),
				InitialMessages: []model.Message{
					tree.Forward{From: 0, To: 1},
					tree.Forward{From: 0, To: 2},
				},
			},
		},
		{
			// A real implementation behind the actorcheck adapter: parity
			// must hold for blob-backed node states too, including the
			// raw-replay confirmation running inside parallel soundness
			// workers.
			name: "actordemo-majority",
			m:    actorBug,
			opt:  Options{Invariant: actordemo.Atomicity(actorBug)},
		},
		{
			name: "actordemo-majority-opt",
			m:    actorBug,
			opt: Options{Invariant: actordemo.Atomicity(actorBug),
				Reduction: actordemo.Reduction{Ad: actorBug}},
		},
		{
			// Symmetry on: the skip predicate and the fixpoint orbit sweep
			// must stay bit-for-bit across worker counts.
			name: "paxos-gen-reduced",
			m:    paxos.New(3, paxos.NoBug, paxos.OnceAt{Node: 0, Index: 0, Value: 7}),
			opt: Options{Invariant: paxos.Agreement(),
				Reduce: Reductions{Symmetry: true}},
		},
		{
			// Symmetry on over a bug-bearing space: the orbit sweep
			// interacts with speculative confirmation.
			name: "twophase-majority-reduced",
			m:    twophase.New(4, twophase.MajorityBug, 2),
			opt: Options{Invariant: twophase.Atomicity(),
				Reduce: Reductions{Symmetry: true}},
		},
		{
			// A transition cap forces canonical charge order; the pool must
			// still agree bit-for-bit at the cutoff.
			name: "paxos-gen-capped",
			m:    paxos.New(3, paxos.NoBug, paxos.OnceAt{Node: 0, Index: 0, Value: 7}),
			opt:  Options{Invariant: paxos.Agreement(), MaxTransitions: 500},
		},
		{
			// Hundreds of witness searches and local-invariant confirmations
			// cut off by a transition cap, at the default options: every
			// search runs where the canonical order raises it, so the cap
			// lands on the same set of searched violations every time.
			name:  "1paxos-bug",
			m:     onepaxosBug,
			start: onepaxosLive,
			opt: Options{Invariant: onepaxos.Agreement(),
				LocalInvariants: []spec.LocalInvariant{onepaxos.Separation()},
				Reduction:       onepaxos.Reduction{}, MaxTransitions: 300},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			start := tc.start
			if start == nil {
				start = model.InitialSystem(tc.m)
			}
			run := func(workers int) *Result {
				o := tc.opt
				o.Workers = workers
				return Check(tc.m, start, o)
			}
			base := run(-1) // forced sequential reference
			assertSameResult(t, -1, base, run(-1))
			assertBugsWellFormed(t, tc.m, start, tc.opt, base)
			for _, w := range []int{0, 1, 4, 8} {
				got := run(w)
				assertSameResult(t, w, base, got)
			}
			// RecordSeries samples the run; it must not move a counter.
			o := tc.opt
			o.Workers, o.RecordSeries = -1, true
			assertBitForBit(t, "RecordSeries", base, Check(tc.m, start, o))
		})
	}
}

// assertSameResult fails the test if two runs differ in any deterministic
// counter or in their confirmed bug list.
func assertSameResult(t *testing.T, workers int, base, got *Result) {
	t.Helper()
	b, g := base.Stats, got.Stats
	if b.SystemStates != g.SystemStates ||
		b.InvariantChecks != g.InvariantChecks ||
		b.NodeStates != g.NodeStates ||
		b.Transitions != g.Transitions ||
		b.PreliminaryViolations != g.PreliminaryViolations ||
		b.SoundnessCalls != g.SoundnessCalls ||
		b.SequencesChecked != g.SequencesChecked ||
		b.ConfirmedBugs != g.ConfirmedBugs ||
		b.DuplicatesDropped != g.DuplicatesDropped ||
		b.SymmetrySkips != g.SymmetrySkips ||
		b.OrbitChecks != g.OrbitChecks {
		t.Fatalf("workers=%d diverged from sequential:\nseq: %s\ngot: %s",
			workers, b.String(), g.String())
	}
	if base.Complete != got.Complete {
		t.Fatalf("workers=%d completeness diverged: seq=%v got=%v",
			workers, base.Complete, got.Complete)
	}
	if len(base.Bugs) != len(got.Bugs) {
		t.Fatalf("workers=%d bug count diverged: seq=%d got=%d",
			workers, len(base.Bugs), len(got.Bugs))
	}
	for i := range base.Bugs {
		bb, gb := base.Bugs[i], got.Bugs[i]
		if bb.Violation.Invariant != gb.Violation.Invariant ||
			bb.Violation.Detail != gb.Violation.Detail {
			t.Fatalf("workers=%d bug %d violation diverged:\nseq: %s %s\ngot: %s %s",
				workers, i, bb.Violation.Invariant, bb.Violation.Detail,
				gb.Violation.Invariant, gb.Violation.Detail)
		}
		if bb.Depth != gb.Depth {
			t.Fatalf("workers=%d bug %d depth diverged: seq=%d got=%d",
				workers, i, bb.Depth, gb.Depth)
		}
		if bb.System.Fingerprint() != gb.System.Fingerprint() {
			t.Fatalf("workers=%d bug %d system state diverged:\nseq: %s\ngot: %s",
				workers, i, bb.System.String(), gb.System.String())
		}
		if len(bb.Schedule) != len(gb.Schedule) {
			t.Fatalf("workers=%d bug %d schedule length diverged: seq=%d got=%d",
				workers, i, len(bb.Schedule), len(gb.Schedule))
		}
	}
}

// TestMaxTransitions is a hard stop.
func TestMaxTransitions(t *testing.T) {
	m, start := paxosSpace()
	res := Check(m, start, Options{Invariant: paxos.Agreement(), MaxTransitions: 100})
	if res.Complete {
		t.Fatal("bounded run claims completeness")
	}
	if res.Stats.Transitions > 100 {
		t.Fatalf("transitions %d exceed the bound", res.Stats.Transitions)
	}
}

// TestBudgetStops within a tolerance.
func TestBudgetStops(t *testing.T) {
	m := paxos.New(3, paxos.NoBug, paxos.EachOnce{Nodes: []model.NodeID{0, 1}, Index: 0})
	start := model.InitialSystem(m)
	t0 := time.Now()
	res := Check(m, start, Options{
		Invariant: paxos.Agreement(),
		Budget:    300 * time.Millisecond,
	})
	elapsed := time.Since(t0)
	if res.Complete {
		t.Skip("machine finished the two-proposal space unexpectedly fast")
	}
	if elapsed > 5*time.Second {
		t.Fatalf("budget of 300ms overrun to %v", elapsed)
	}
}

// TestMaxPathDepthMonotone: deeper bounds explore supersets.
func TestMaxPathDepthMonotone(t *testing.T) {
	m, start := paxosSpace()
	prev := 0
	for d := 1; d <= 6; d++ {
		res := Check(m, start, Options{Invariant: paxos.Agreement(), MaxPathDepth: d,
			DisableSystemStates: true})
		if res.Stats.NodeStates < prev {
			t.Fatalf("node states shrank at depth %d", d)
		}
		prev = res.Stats.NodeStates
	}
}

// TestDisableSystemStates: the LMC-explore configuration of Figure 13
// materializes nothing.
func TestDisableSystemStates(t *testing.T) {
	m, start := paxosSpace()
	res := Check(m, start, Options{Invariant: paxos.Agreement(), DisableSystemStates: true})
	if res.Stats.SystemStates != 0 || res.Stats.InvariantChecks != 0 {
		t.Fatalf("system states created despite DisableSystemStates: %s", res.Stats.String())
	}
	if !res.Complete || res.Stats.NodeStates == 0 {
		t.Fatal("exploration broken")
	}
}

// TestDisableSoundness: the LMC-system-state configuration counts
// preliminary violations but confirms nothing, whatever found them — the
// OPT witness leaf (paxos-bug) or a node-local invariant (randtree-bug).
func TestDisableSoundness(t *testing.T) {
	pm := paxos.New(3, paxos.LastResponseBug, paxos.ActiveIndex{MaxPerNode: 1})
	live, err := paxos.PaperLiveState(pm)
	if err != nil {
		t.Fatal(err)
	}
	rt := randtree.New(5, 2, randtree.SelfSiblingBug)
	cases := []struct {
		name  string
		m     model.Machine
		start model.SystemState
		opt   Options
		// exact is set when the run is deterministic (no wall-clock budget),
		// so the counters can be pinned.
		exact bool
	}{
		{"paxos-bug-opt", pm, live, Options{
			Invariant: paxos.Agreement(), Reduction: paxos.Reduction{},
			Budget: 2 * time.Second}, false},
		{"randtree-bug-local", rt, model.InitialSystem(rt), Options{
			LocalInvariants: []spec.LocalInvariant{randtree.Structure()}}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.opt.DisableSoundness = true
			res := Check(tc.m, tc.start, tc.opt)
			if res.Stats.ConfirmedBugs != 0 || len(res.Bugs) != 0 {
				t.Fatalf("bugs confirmed with soundness disabled: %s", res.Stats.String())
			}
			if tc.exact {
				if res.Stats.PreliminaryViolations == 0 || res.Stats.SoundnessCalls != 0 ||
					res.Stats.SequencesChecked != 0 {
					t.Fatalf("want violations counted and no soundness work: %s", res.Stats.String())
				}
			} else if res.Stats.PreliminaryViolations == 0 {
				// Under heavy machine load exploration may not reach a
				// conflicting state within the budget; the property under test
				// (no confirmed bugs with soundness disabled) has been checked
				// either way.
				t.Skip("no conflicting states materialized within the budget")
			}
		})
	}
}

// TestDupLimitGrowsSpace: admitting duplicate copies can only enlarge I+
// coverage (more deliveries), never lose states.
func TestDupLimitGrowsSpace(t *testing.T) {
	m, start := paxosSpace()
	base := Check(m, start, Options{Invariant: paxos.Agreement(), Reduction: paxos.Reduction{}})
	dup := Check(m, start, Options{Invariant: paxos.Agreement(), Reduction: paxos.Reduction{},
		DupLimit: 1})
	if dup.Stats.NodeStates < base.Stats.NodeStates {
		t.Fatalf("duplicate admission lost states: %d < %d",
			dup.Stats.NodeStates, base.Stats.NodeStates)
	}
	if dup.Stats.Transitions <= base.Stats.Transitions {
		t.Fatalf("duplicate admission added no deliveries: %d <= %d",
			dup.Stats.Transitions, base.Stats.Transitions)
	}
}

// TestLocalBoundDeepening: with per-pass deepening enabled, the final bound
// grows when the first pass suppressed actions.
func TestLocalBoundDeepening(t *testing.T) {
	m := twophase.New(3, twophase.NoBug)
	start := model.InitialSystem(m)
	res := Check(m, start, Options{
		Invariant:      twophase.Atomicity(),
		LocalBound:     1,
		LocalBoundStep: 1,
		MaxLocalBound:  3,
	})
	// 2PC's single Begin action never needs more than bound 1; the run
	// must terminate at the first fixpoint rather than restarting forever.
	if res.FinalLocalBound != 1 {
		t.Fatalf("bound deepened needlessly to %d", res.FinalLocalBound)
	}
	if !res.Complete {
		t.Fatal("incomplete")
	}
}

// TestInitialMessagesSeedNetwork: captured in-flight messages are both
// explorable and usable by soundness verification.
func TestInitialMessagesSeedNetwork(t *testing.T) {
	m := tree.NewPaperTree()
	start := model.InitialSystem(m)
	// Pretend the root's sends were in flight at snapshot time but the
	// root state was captured before flipping to Sent — then the target
	// CAN receive while the root looks idle, making the causality
	// invariant's violation real.
	inflight := []model.Message{
		tree.Forward{From: 0, To: 1},
		tree.Forward{From: 0, To: 2},
	}
	res := Check(m, start, Options{
		Invariant:       m.CausalityInvariant(),
		InitialMessages: inflight,
		StopAtFirstBug:  true,
	})
	if len(res.Bugs) == 0 {
		t.Fatalf("seeded in-flight messages not explored: %s", res.Stats.String())
	}
}

// TestResultCompleteOnEmptyMachine: a machine with no enabled events
// reaches its fixpoint instantly.
func TestResultCompleteOnEmptyMachine(t *testing.T) {
	m := tree.New([][]model.NodeID{{}}, 0, 0) // single node, no children
	res := Check(m, model.InitialSystem(m), Options{Invariant: m.CausalityInvariant()})
	if !res.Complete {
		t.Fatal("trivial machine incomplete")
	}
}

// TestDeterministicRuns: repeated identical runs agree on all counters
// that do not measure time.
func TestDeterministicRuns(t *testing.T) {
	m, start := paxosSpace()
	a := Check(m, start, Options{Invariant: paxos.Agreement(), Reduction: paxos.Reduction{}})
	b := Check(m, start, Options{Invariant: paxos.Agreement(), Reduction: paxos.Reduction{}})
	if a.Stats.NodeStates != b.Stats.NodeStates ||
		a.Stats.Transitions != b.Stats.Transitions ||
		a.Stats.SystemStates != b.Stats.SystemStates ||
		a.Stats.DuplicatesDropped != b.Stats.DuplicatesDropped {
		t.Fatalf("nondeterministic:\n%s\n%s", a.Stats.String(), b.Stats.String())
	}
}
