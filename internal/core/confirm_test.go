package core

import (
	"testing"

	"lmc/internal/codec"
	"lmc/internal/model"
	"lmc/internal/protocols/randtree"
	"lmc/internal/protocols/twophase"
	"lmc/internal/spec"
	"lmc/internal/trace"
)

// assertBugsWellFormed checks what the verdict path promises of every
// result, whatever found the violation: each reported bug carries a schedule
// that replays on the real handlers from the start state to exactly
// Bug.System, ConfirmedBugs counts the list, no system state is reported
// twice, and a StopAtFirstBug run that found a bug found exactly one and
// says so.
func assertBugsWellFormed(t *testing.T, m model.Machine, start model.SystemState, opt Options, res *Result) {
	t.Helper()
	if res.Stats.ConfirmedBugs != len(res.Bugs) {
		t.Fatalf("ConfirmedBugs=%d but %d bugs reported", res.Stats.ConfirmedBugs, len(res.Bugs))
	}
	seen := make(map[codec.Fingerprint]bool)
	for i, b := range res.Bugs {
		fp := b.System.Fingerprint()
		if seen[fp] {
			t.Fatalf("bug %d: system state %s reported twice", i, fp)
		}
		seen[fp] = true
		rr := trace.ReplayWith(m, start, opt.InitialMessages, b.Schedule)
		if rr.Err != nil {
			t.Fatalf("bug %d: schedule does not replay: %v", i, rr.Err)
		}
		if rr.Final.Fingerprint() != fp {
			t.Fatalf("bug %d: schedule replays to %s, reported %s", i, rr.Final.Fingerprint(), fp)
		}
		if b.Violation == nil || len(b.Violation.System) != len(b.System) {
			t.Fatalf("bug %d: violation carries no system state: %+v", i, b.Violation)
		}
	}
	if opt.StopAtFirstBug && len(res.Bugs) > 0 {
		if len(res.Bugs) != 1 || res.StopReason != StopFirstBug {
			t.Fatalf("StopAtFirstBug: %d bugs, stop reason %v", len(res.Bugs), res.StopReason)
		}
	}
}

// TestVerdictPathOrigins drives each origin of a violation through the one
// verdict path (confirm.go), with StopAtFirstBug off and on: the start-state
// check, a GEN sweep batch, the fixpoint orbit sweep, the OPT witness leaf
// and the local-invariant leaf.
func TestVerdictPathOrigins(t *testing.T) {
	tp := twophase.New(4, twophase.MajorityBug, 2)
	tpStart := model.InitialSystem(tp)
	// A start state that already violates atomicity: the state the GEN run's
	// first bug was reported on.
	seed := Check(tp, tpStart, Options{Invariant: twophase.Atomicity(), StopAtFirstBug: true, Workers: -1})
	if len(seed.Bugs) != 1 {
		t.Fatalf("no violating state to start from: %s", seed.Stats.String())
	}
	violating := seed.Bugs[0].System
	rt := randtree.New(5, 2, randtree.SelfSiblingBug)

	cases := []struct {
		name  string
		m     model.Machine
		start model.SystemState
		opt   Options
		// exercised reports whether the run (the StopAtFirstBug-off one; a
		// run cut at its first bug never reaches the fixpoint orbit sweep)
		// went through the origin the case is named after.
		exercised func(res *Result) bool
	}{
		{"start-state", tp, violating, Options{Invariant: twophase.Atomicity()},
			func(res *Result) bool {
				b := res.Bugs[0]
				return len(b.Schedule) == 0 && b.System.Fingerprint() == violating.Fingerprint()
			}},
		{"gen-batch", tp, tpStart, Options{Invariant: twophase.Atomicity()},
			func(res *Result) bool { return res.Stats.SoundnessCalls > 0 && res.Stats.OrbitChecks == 0 }},
		{"orbit-sweep", tp, tpStart, Options{Invariant: twophase.Atomicity(),
			Reduce: Reductions{Symmetry: true}},
			func(res *Result) bool { return res.Stats.OrbitChecks > 0 }},
		{"opt-witness", tp, tpStart, Options{Invariant: twophase.Atomicity(),
			Reduction: twophase.Reduction{}},
			func(res *Result) bool { return res.Stats.CoverIndexHits > 0 }},
		{"local-invariant", rt, model.InitialSystem(rt), Options{
			LocalInvariants: []spec.LocalInvariant{randtree.Structure()}, MaxTransitions: 300},
			func(res *Result) bool { return res.Stats.InvariantChecks == 0 }},
	}
	for _, tc := range cases {
		for _, first := range []bool{false, true} {
			name := tc.name
			if first {
				name += "/first"
			}
			t.Run(name, func(t *testing.T) {
				opt := tc.opt
				opt.StopAtFirstBug = first
				opt.Workers = -1
				res := Check(tc.m, tc.start, opt)
				if len(res.Bugs) == 0 {
					t.Fatalf("no bug confirmed: %s", res.Stats.String())
				}
				if !first && !tc.exercised(res) {
					t.Fatalf("run did not go through the %s origin: %s", tc.name, res.Stats.String())
				}
				assertBugsWellFormed(t, tc.m, tc.start, opt, res)
			})
		}
	}
}
