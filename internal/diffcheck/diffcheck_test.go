package diffcheck

import (
	"encoding/json"
	"flag"
	"reflect"
	"testing"
	"time"

	"lmc/internal/core"
	"lmc/internal/mc/global"
	"lmc/internal/spec"
	"lmc/internal/testkit"
)

// corpusSeed seeds the deterministic tier-1 corpus. Changing it changes
// which scenarios run, so it is a flag, not an environment lookup: the same
// test binary invocation always checks the same corpus, and a failure log
// names the seed needed to reproduce.
var corpusSeed = flag.Int64("diffcheck.seed", 20260806, "corpus seed for TestCorpusAgreement")

const corpusSize = 60

// corpusTuning caps each checker run inside the corpus: a run that exceeds
// the cap degrades to inconclusive (never a disagreement), so the corpus
// verdict is stable across machines while total runtime stays bounded.
var corpusTuning = Tuning{Budget: 500 * time.Millisecond}

// TestCorpusAgreement is the tier-1 differential corpus: a deterministic set
// of small scenarios over every protocol, each run through the global
// baseline, LMC-GEN and (where a reduction exists) LMC-OPT, with all
// counterexamples replay-validated. Any disagreement is a checker bug.
func TestCorpusAgreement(t *testing.T) {
	seed := *corpusSeed
	t.Logf("corpus seed %d (reproduce: go test ./internal/diffcheck -run TestCorpusAgreement -diffcheck.seed=%d)", seed, seed)
	scenarios := Corpus(seed, corpusSize)
	bugsFound := 0
	for i, sc := range scenarios {
		v, err := Run(sc, corpusTuning)
		if err != nil {
			t.Fatalf("scenario %d (%s): %v\nscenario: %s", i, sc.Name(), err, mustJSON(sc))
		}
		if v.Global.Bugs > 0 {
			bugsFound++
		}
		if !v.Agree() {
			min := Shrink(sc, func(c Scenario) bool {
				mv, merr := Run(c, corpusTuning)
				return merr == nil && !mv.Agree()
			})
			t.Errorf("scenario %d (%s) seed %d: %d disagreement(s):", i, sc.Name(), seed, len(v.Disagreements))
			for _, d := range v.Disagreements {
				t.Errorf("  %s", d)
			}
			t.Errorf("shrunk scenario: %s", mustJSON(min))
		}
	}
	t.Logf("%d scenarios, %d with global-confirmed bugs", len(scenarios), bugsFound)
}

// TestGENConfirmationStopsAtBudget holds LMC-GEN's confirmation batches to
// the wall-clock budget. Corpus scenario 40 (onepaxos/plusplus/n2/d6/p1)
// raises tens of thousands of preliminary violations the soundness check
// refutes one by one; when every batch ran whatever the deadline said, its
// GEN run under a 200 ms budget took about 20 s.
func TestGENConfirmationStopsAtBudget(t *testing.T) {
	sc := Corpus(*corpusSeed, corpusSize)[40]
	if sc.Name() != "onepaxos/plusplus/n2/d6/p1" {
		t.Fatalf("corpus scenario 40 is %s; the test wants the onepaxos one it was written for", sc.Name())
	}
	inst, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	start, inflight, err := sc.Prepare(inst)
	if err != nil {
		t.Fatal(err)
	}
	const budget, ceiling = 200 * time.Millisecond, 5 * time.Second
	t0 := time.Now()
	res := core.Check(inst.Machine, start, lmcOptions(sc, Tuning{Budget: budget}, inst, inflight, false))
	took := time.Since(t0)
	if res.StopReason != core.StopBudget || took > ceiling {
		t.Fatalf("GEN under a %v budget: stop reason %v after %v (want %v within %v); %s",
			budget, res.StopReason, took, core.StopBudget, ceiling, res.Stats.String())
	}
}

// TestCorpusDeterministic pins generator reproducibility: the same seed must
// yield the same scenarios, and a scenario must prepare to the same start
// configuration every time.
func TestCorpusDeterministic(t *testing.T) {
	a := Corpus(7, 20)
	b := Corpus(7, 20)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Corpus(7, 20) is not deterministic")
	}
	for i, sc := range a {
		inst, err := sc.Build()
		if err != nil {
			t.Fatalf("scenario %d: %v", i, err)
		}
		s1, in1, err1 := sc.Prepare(inst)
		s2, in2, err2 := sc.Prepare(inst)
		if err1 != nil || err2 != nil {
			t.Fatalf("scenario %d prepare: %v / %v", i, err1, err2)
		}
		if s1.Fingerprint() != s2.Fingerprint() || len(in1) != len(in2) {
			t.Fatalf("scenario %d (%s): Prepare is not deterministic", i, sc.Name())
		}
	}
}

// actorCorpusSize keeps the adapter corpus smaller than the main one: each
// scenario runs the real implementation through the interception seam, which
// costs a snapshot/restore cycle per handler execution.
const actorCorpusSize = 16

// TestActorCorpusAgreement is the adapter-backed differential corpus: random
// actordemo configurations checked through actorcheck against the global
// baseline, with witnesses validated by trace replay, testkit replay AND the
// uninstrumented implementation. The main 60-scenario corpus is frozen; this
// corpus is generated separately so it can grow without shifting those draws.
func TestActorCorpusAgreement(t *testing.T) {
	seed := *corpusSeed
	scenarios := ActorCorpus(seed, actorCorpusSize)
	bugsFound := 0
	for i, sc := range scenarios {
		v, err := Run(sc, corpusTuning)
		if err != nil {
			t.Fatalf("scenario %d (%s): %v\nscenario: %s", i, sc.Name(), err, mustJSON(sc))
		}
		if v.Global.Bugs > 0 {
			bugsFound++
		}
		if !v.Agree() {
			min := Shrink(sc, func(c Scenario) bool {
				mv, merr := Run(c, corpusTuning)
				return merr == nil && !mv.Agree()
			})
			t.Errorf("scenario %d (%s) seed %d: %d disagreement(s):", i, sc.Name(), seed, len(v.Disagreements))
			for _, d := range v.Disagreements {
				t.Errorf("  %s", d)
			}
			t.Errorf("shrunk scenario: %s", mustJSON(min))
		}
	}
	t.Logf("%d adapter scenarios, %d with global-confirmed bugs", len(scenarios), bugsFound)
}

// TestActorCorpusDeterministic pins the actor generator the same way
// TestCorpusDeterministic pins the main one.
func TestActorCorpusDeterministic(t *testing.T) {
	a := ActorCorpus(7, 10)
	b := ActorCorpus(7, 10)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("ActorCorpus(7, 10) is not deterministic")
	}
	for i, sc := range a {
		inst, err := sc.Build()
		if err != nil {
			t.Fatalf("scenario %d: %v", i, err)
		}
		s1, _, err1 := sc.Prepare(inst)
		s2, _, err2 := sc.Prepare(inst)
		if err1 != nil || err2 != nil {
			t.Fatalf("scenario %d prepare: %v / %v", i, err1, err2)
		}
		if s1.Fingerprint() != s2.Fingerprint() {
			t.Fatalf("scenario %d (%s): Prepare is not deterministic", i, sc.Name())
		}
	}
}

// TestKnownBugsAgree pins one hand-written scenario per buggy protocol
// variant and requires the global checker to confirm the planted bug, LMC to
// agree, and all replays to validate.
func TestKnownBugsAgree(t *testing.T) {
	cases := []Scenario{
		// The paxos §5.5 and onepaxos §5.6 bugs are only reachable from
		// the papers' live states within tractable depth bounds.
		{Protocol: ProtoPaxos, Bug: BugLastResponse, Nodes: 3, Live: true, Depth: 12,
			LocalBound: 1, MaxLocalBound: 4},
		{Protocol: ProtoOnePaxos, Bug: BugPlusPlus, Nodes: 3, Live: true, Depth: 8,
			LocalBound: 1, MaxLocalBound: 4, MaxProposals: 1, MaxTakeovers: 1},
		{Protocol: ProtoRandTree, Bug: BugSelfSibling, Nodes: 4, Depth: 8,
			LocalBound: 1, MaxLocalBound: 4, MaxChildren: 2},
		{Protocol: ProtoTwoPhase, Bug: BugMajority, Nodes: 4, Depth: 10,
			LocalBound: 1, MaxLocalBound: 4, NoVoters: []int{2}},
		// The adapter-backed real implementation: the same majority bug, but
		// found through actorcheck's interception seam, with every witness
		// additionally replayed on the uninstrumented code (KindRawDiverged).
		{Protocol: ProtoActor2PC, Bug: BugMajority, Nodes: 4, Depth: 10,
			LocalBound: 1, MaxLocalBound: 4, NoVoters: []int{2}},
	}
	// On the paxos live state LMC-GEN drowns in Cartesian combination and
	// burns its whole budget without confirming the bug (the §5.4 GEN/OPT
	// gap), so the budget is paid in full every run. It must still cover
	// LMC-OPT's ~1 s time-to-bug under the race detector's ~10x slowdown.
	tun := Tuning{Budget: 20 * time.Second}
	for _, sc := range cases {
		sc := sc
		t.Run(sc.Name(), func(t *testing.T) {
			v, err := Run(sc, tun)
			if err != nil {
				t.Fatal(err)
			}
			if v.Global.Bugs == 0 {
				t.Errorf("global checker found no bug in %s (depth %d too small?)", sc.Name(), sc.Depth)
			}
			t.Logf("global: %+v", v.Global)
			t.Logf("GEN:    %+v", v.GEN)
			if v.OPT != nil {
				t.Logf("OPT:    %+v", v.OPT)
			}
			lmcFound := v.GEN.Bugs > 0 || (v.OPT != nil && v.OPT.Bugs > 0)
			if !lmcFound {
				t.Errorf("no LMC strategy found the bug in %s", sc.Name())
			}
			if !v.Agree() {
				for _, d := range v.Disagreements {
					t.Errorf("disagreement: %s", d)
				}
			}
		})
	}
}

// TestCorrectProtocolsQuiet pins that the correct variants stay quiet: no
// checker reports a bug, and the runs still agree.
func TestCorrectProtocolsQuiet(t *testing.T) {
	cases := []Scenario{
		{Protocol: ProtoTree, Nodes: 5, Depth: 12, LocalBound: 1, MaxLocalBound: 4},
		{Protocol: ProtoChain, Nodes: 4, Depth: 10, LocalBound: 1, MaxLocalBound: 4},
		{Protocol: ProtoTwoPhase, Nodes: 3, Depth: 10, LocalBound: 1, MaxLocalBound: 4},
		{Protocol: ProtoActor2PC, Nodes: 3, Depth: 10, LocalBound: 1, MaxLocalBound: 4},
	}
	for _, sc := range cases {
		sc := sc
		t.Run(sc.Name(), func(t *testing.T) {
			v, err := Run(sc, Tuning{})
			if err != nil {
				t.Fatal(err)
			}
			if v.Global.Bugs != 0 || v.GEN.Bugs != 0 {
				t.Errorf("correct protocol reported bugs: global=%d gen=%d", v.Global.Bugs, v.GEN.Bugs)
			}
			if !v.Agree() {
				for _, d := range v.Disagreements {
					t.Errorf("disagreement: %s", d)
				}
			}
		})
	}
}

// TestMissedBugGating pins the detector's core rule at the unit level with
// constructed checker results: a global-confirmed bug against an
// empty-handed LMC run is a missed-bug disagreement ONLY when the LMC run
// reached an unsuppressed fixpoint; bounded or suppressed runs degrade to
// inconclusive notes.
func TestMissedBugGating(t *testing.T) {
	sc := Scenario{Protocol: ProtoChain, Nodes: 2, Depth: 4, LocalBound: 1, MaxLocalBound: 2}
	inst, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	start, inflight, err := sc.Prepare(inst)
	if err != nil {
		t.Fatal(err)
	}
	g := &global.Result{Bugs: []global.Bug{{Violation: &spec.Violation{Invariant: "x"}}}}

	cases := []struct {
		name                 string
		complete, suppressed bool
		wantMissed           bool
	}{
		{"unsuppressed-fixpoint", true, false, true},
		{"suppressed-fixpoint", true, true, false},
		{"budget-capped", false, false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := &Verdict{Scenario: sc}
			r := &core.Result{Complete: tc.complete, Suppressed: tc.suppressed}
			v.crossCheck(inst, start, inflight, "lmc-gen", r, g)
			missed := false
			for _, d := range v.Disagreements {
				if d.Kind == KindMissedBug {
					missed = true
				}
			}
			if missed != tc.wantMissed {
				t.Errorf("complete=%v suppressed=%v: missed-bug=%v, want %v (disagreements: %v, notes: %v)",
					tc.complete, tc.suppressed, missed, tc.wantMissed, v.Disagreements, v.Inconclusive)
			}
			if !tc.wantMissed && len(v.Inconclusive) == 0 {
				t.Error("gated-out run produced no inconclusive note")
			}
		})
	}
}

// TestUnsoundReportDetected corrupts a real counterexample and checks the
// validator flags it: a truncated schedule replays fine but must fail the
// claimed-fingerprint and claimed-violation checks.
func TestUnsoundReportDetected(t *testing.T) {
	sc := Scenario{Protocol: ProtoTwoPhase, Bug: BugMajority, Nodes: 4, Depth: 10,
		LocalBound: 1, MaxLocalBound: 4, NoVoters: []int{2}}
	inst, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	start, inflight, err := sc.Prepare(inst)
	if err != nil {
		t.Fatal(err)
	}
	res := core.Check(inst.Machine, start, lmcOptions(sc, Tuning{}, inst, inflight, false))
	if len(res.Bugs) == 0 {
		t.Fatal("need a real bug to corrupt")
	}
	v := &Verdict{Scenario: sc}
	bug := res.Bugs[0]

	// Truncated schedule: replays, but to the wrong (non-violating) state.
	wantFP := bug.System.Fingerprint()
	trunc := bug.Schedule[:len(bug.Schedule)-1]
	v.validateSchedule(inst, start, inflight, "lmc-gen", bug.Violation.Invariant, trunc, &wantFP, "tampered")
	if len(v.Disagreements) == 0 || v.Disagreements[0].Kind != KindUnsound {
		t.Errorf("truncated schedule not flagged unsound: %+v", v.Disagreements)
	}

	// Unknown invariant name.
	v2 := &Verdict{Scenario: sc}
	v2.validateSchedule(inst, start, inflight, "lmc-gen", "no-such-invariant", bug.Schedule, &wantFP, "tampered")
	if len(v2.Disagreements) == 0 || v2.Disagreements[0].Kind != KindUnsound {
		t.Errorf("unknown invariant not flagged unsound: %+v", v2.Disagreements)
	}

	// The untampered bug passes clean.
	v3 := &Verdict{Scenario: sc}
	v3.validateSchedule(inst, start, inflight, "lmc-gen", bug.Violation.Invariant, bug.Schedule, &wantFP, "real")
	if len(v3.Disagreements) != 0 {
		t.Errorf("real counterexample flagged: %+v", v3.Disagreements)
	}
}

// TestShrinkSynthetic drives the shrinker with a synthetic property and
// checks it reaches the known minimum.
func TestShrinkSynthetic(t *testing.T) {
	sc := Scenario{Protocol: ProtoChain, Nodes: 6, Depth: 12, LocalBound: 2, MaxLocalBound: 5,
		DupLimit: 1, Prefix: []PrefixOp{{Op: "act"}, {Op: "deliver", Pick: 3}, {Op: "drop"}, {Op: "act", Node: 1}}}
	// Property: at least 3 nodes and depth at least 4.
	prop := func(c Scenario) bool { return c.Nodes >= 3 && c.Depth >= 4 }
	min := Shrink(sc, prop)
	if min.Nodes != 3 || min.Depth != 4 {
		t.Errorf("shrink stopped at nodes=%d depth=%d, want 3/4", min.Nodes, min.Depth)
	}
	if len(min.Prefix) != 0 {
		t.Errorf("shrink kept %d prefix ops, want 0", len(min.Prefix))
	}
	if min.DupLimit != 0 || min.LocalBound != 1 || min.MaxLocalBound != min.LocalBound {
		t.Errorf("shrink kept bounds dup=%d local=%d/%d", min.DupLimit, min.LocalBound, min.MaxLocalBound)
	}
}

// TestShrinkPreservesRealProperty shrinks a buggy scenario under "the global
// checker still finds the bug" and checks the result is no larger and still
// valid.
func TestShrinkPreservesRealProperty(t *testing.T) {
	sc := Scenario{Protocol: ProtoTwoPhase, Bug: BugMajority, Nodes: 5, Depth: 12,
		LocalBound: 2, MaxLocalBound: 5, NoVoters: []int{2, 3},
		Prefix: []PrefixOp{{Op: "act"}, {Op: "deliver"}}}
	prop := func(c Scenario) bool {
		v, err := Run(c, Tuning{SkipOPT: true})
		return err == nil && v.Global.Bugs > 0
	}
	if !prop(sc) {
		t.Fatal("starting scenario does not exhibit the property")
	}
	min := Shrink(sc, prop)
	if !prop(min) {
		t.Fatal("shrunk scenario lost the property")
	}
	if min.Nodes > sc.Nodes || min.Depth > sc.Depth || len(min.Prefix) > len(sc.Prefix) {
		t.Errorf("shrink grew the scenario: %s -> %s", mustJSON(sc), mustJSON(min))
	}
	t.Logf("shrunk %s -> %s", sc.Name(), min.Name())
}

// TestScenarioJSONRoundTrip pins that scenarios survive the artifact format.
func TestScenarioJSONRoundTrip(t *testing.T) {
	for i, sc := range Corpus(42, 30) {
		data, err := json.Marshal(sc)
		if err != nil {
			t.Fatal(err)
		}
		var back Scenario
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sc, back) {
			t.Fatalf("scenario %d does not round-trip:\n%s\nvs\n%s", i, mustJSON(sc), mustJSON(back))
		}
	}
}

// TestArtifactRoundTrip writes and reloads an artifact.
func TestArtifactRoundTrip(t *testing.T) {
	sc := Corpus(3, 1)[0]
	v, err := Run(sc, Tuning{})
	if err != nil {
		t.Fatal(err)
	}
	a := &Artifact{Seed: 3, Index: 0, Scenario: sc, Verdict: v}
	path := t.TempDir() + "/artifact.json"
	if err := a.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Scenario, sc) || back.Seed != 3 {
		t.Fatalf("artifact does not round-trip: %s", mustJSON(back.Scenario))
	}
}

// TestGeneratedScenariosBuild pins that every generated scenario is valid
// and that onepaxos driver budgets are always explicit (a zero budget means
// unlimited and would make the state space infinite).
func TestGeneratedScenariosBuild(t *testing.T) {
	for i, sc := range Corpus(99, 200) {
		if _, err := sc.Build(); err != nil {
			t.Errorf("scenario %d (%s): %v", i, sc.Name(), err)
		}
		if sc.Protocol == ProtoOnePaxos && (sc.MaxProposals < 1 || sc.MaxTakeovers < 1) {
			t.Errorf("scenario %d: onepaxos with unlimited driver budget: %s", i, mustJSON(sc))
		}
		if sc.LocalBound < 1 || sc.MaxLocalBound < sc.LocalBound {
			t.Errorf("scenario %d: bad local bounds %d/%d", i, sc.LocalBound, sc.MaxLocalBound)
		}
	}
	// A hand-edited artifact is refused here, before core.Check would panic
	// on what core.Options.Validate rejects.
	bad := Corpus(99, 1)[0]
	bad.DupLimit = -1
	if _, err := bad.Build(); err == nil {
		t.Errorf("dup_limit -1 accepted: %s", mustJSON(bad))
	}
}

func mustJSON(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(data)
}

// TestReductionDivergenceGating pins the reduction-conservatism detector at
// the unit level with constructed results: an unreduced-confirmed bug
// against an empty-handed reduced run is a reduction-diverged disagreement
// ONLY when the reduced run reached an unsuppressed fixpoint; bounded or
// suppressed reduced runs degrade to inconclusive notes.
func TestReductionDivergenceGating(t *testing.T) {
	sc := Scenario{Protocol: ProtoChain, Nodes: 2, Depth: 4, LocalBound: 1, MaxLocalBound: 2}
	inst, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	start, inflight, err := sc.Prepare(inst)
	if err != nil {
		t.Fatal(err)
	}
	unreduced := &core.Result{Bugs: []core.Bug{{Violation: &spec.Violation{Invariant: "x"}}}}

	cases := []struct {
		name                 string
		complete, suppressed bool
		wantDiverged         bool
	}{
		{"unsuppressed-fixpoint", true, false, true},
		{"suppressed-fixpoint", true, true, false},
		{"budget-capped", false, false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := &Verdict{Scenario: sc}
			reduced := &core.Result{Complete: tc.complete, Suppressed: tc.suppressed}
			v.checkReduced(inst, start, inflight, "lmc-gen-reduced", unreduced, reduced)
			diverged := false
			for _, d := range v.Disagreements {
				if d.Kind == KindReductionDiverged {
					diverged = true
				}
			}
			if diverged != tc.wantDiverged {
				t.Errorf("complete=%v suppressed=%v: reduction-diverged=%v, want %v (disagreements: %v, notes: %v)",
					tc.complete, tc.suppressed, diverged, tc.wantDiverged, v.Disagreements, v.Inconclusive)
			}
			if !tc.wantDiverged && len(v.Inconclusive) == 0 {
				t.Error("gated-out reduced run produced no inconclusive note")
			}
		})
	}
}

// TestReducedTwinRunsOnBugScenario: a scenario whose unreduced run confirms
// a bug must get a reduced twin run, and the twin must re-find the bug (the
// end-to-end conservatism direction on a real space).
func TestReducedTwinRunsOnBugScenario(t *testing.T) {
	sc := Scenario{Protocol: ProtoTwoPhase, Bug: BugMajority, Nodes: 4, Depth: 10,
		LocalBound: 1, MaxLocalBound: 4, NoVoters: []int{2}}
	v, err := Run(sc, Tuning{})
	if err != nil {
		t.Fatal(err)
	}
	if v.GEN.Bugs == 0 {
		t.Fatal("unreduced GEN did not find the planted bug; test is vacuous")
	}
	if v.GENReduced == nil {
		t.Fatal("no reduced twin ran despite a confirmed unreduced bug")
	}
	if v.GENReduced.Bugs == 0 {
		t.Fatalf("reduced twin lost the planted bug: %+v", v.GENReduced)
	}
	if !v.Agree() {
		for _, d := range v.Disagreements {
			t.Errorf("disagreement: %s", d)
		}
	}
}

// TestReducedTwinSkippedWhenVacuous: an unreduced run that burned its
// budget without confirming anything gates the twin out (nothing to
// preserve), leaving a note instead of re-burning the budget.
func TestReducedTwinSkippedWhenVacuous(t *testing.T) {
	if !reducedTwinInformative(&core.Result{Complete: false, Suppressed: true}) {
		// Gate holds for the bounded empty-handed shape.
	} else {
		t.Error("bounded empty-handed run should not get a reduced twin")
	}
	if !reducedTwinInformative(&core.Result{Complete: true}) {
		t.Error("clean fixpoint run should get a reduced twin")
	}
	if !reducedTwinInformative(&core.Result{Bugs: []core.Bug{{}}}) {
		t.Error("bug-confirming run should get a reduced twin")
	}
}

// TestCorpusHandlersAudited runs the corpus's Paxos and 1Paxos scenarios —
// the two protocols whose node states share their collections and carry
// their fingerprint — with every handler execution audited (testkit.Audit:
// the successor's carried fingerprint is the hash of its encoding, and the
// handler wrote to nothing but its own copy), through the prefix script, the
// global baseline and LMC-OPT, sequential and on the worker pool. Under
// -race the pool run is also the check that a published state's fingerprint
// is only ever read.
func TestCorpusHandlersAudited(t *testing.T) {
	tun := Tuning{Budget: 150 * time.Millisecond}.withDefaults()
	audited := 0
	for i, sc := range Corpus(*corpusSeed, corpusSize) {
		if sc.Protocol != ProtoPaxos && sc.Protocol != ProtoOnePaxos {
			continue
		}
		inst, err := sc.Build()
		if err != nil {
			t.Fatalf("scenario %d (%s): %v", i, sc.Name(), err)
		}
		inst.Machine = testkit.Audit(inst.Machine, t)
		start, inflight, err := sc.Prepare(inst)
		if err != nil {
			t.Fatalf("scenario %d (%s): %v", i, sc.Name(), err)
		}
		global.Check(inst.Machine, start, global.Options{
			Invariant: inst.GlobalInvariant(), Strategy: global.DFS, MaxDepth: sc.Depth,
			MaxTransitions: tun.GlobalMaxTransitions, Budget: tun.Budget, InitialMessages: inflight,
		})
		for _, workers := range []int{-1, 4} {
			opt := lmcOptions(sc, tun, inst, inflight, true)
			opt.Workers = workers
			if workers > 0 {
				opt.MaxTransitions = 0 // a transition cap keeps the sweeps off the pool
			}
			core.Check(inst.Machine, start, opt)
		}
		audited++
		if t.Failed() {
			t.Fatalf("scenario %d (%s) failed the audit: %s", i, sc.Name(), mustJSON(sc))
		}
	}
	if audited == 0 {
		t.Fatal("the corpus holds no Paxos or 1Paxos scenario")
	}
	t.Logf("%d scenarios audited", audited)
}
