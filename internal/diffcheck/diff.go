package diffcheck

import (
	"fmt"
	"time"

	"lmc/internal/codec"
	"lmc/internal/core"
	"lmc/internal/mc/global"
	"lmc/internal/model"
	"lmc/internal/obs"
	"lmc/internal/testkit"
	"lmc/internal/trace"
)

// Tuning bounds one differential run. The zero value picks defaults sized
// for the randomized corpus (small scenarios, sub-second runs).
type Tuning struct {
	// GlobalMaxTransitions caps the baseline's handler executions; 0 means
	// DefaultMaxTransitions. A capped-out global run is inconclusive, never
	// a disagreement.
	GlobalMaxTransitions int
	// LMCMaxTransitions caps the local checker's handler executions; 0
	// means DefaultMaxTransitions.
	LMCMaxTransitions int
	// Budget bounds each individual checker run; 0 means DefaultBudget.
	Budget time.Duration
	// DisableDeepening turns off the local checker's iterative deepening of
	// the local-event bound, pinning it at Scenario.LocalBound. The corpus
	// never sets this; tests use it to manufacture bounded runs that miss
	// bugs, exercising the disagreement detector.
	DisableDeepening bool
	// SkipOPT skips the LMC-OPT run even when the scenario has a reduction.
	SkipOPT bool
	// SkipReductions skips the symmetry twin run (the lmc_gen_reduced
	// summary and the reduction-diverged direction). The corpus never sets
	// this; tests use it to time-box runs that target other directions.
	SkipReductions bool
	// Observer receives run events from every checker run of the
	// differential (global, LMC-GEN, LMC-OPT). With concurrent scenarios the
	// streams interleave; the implementation must be safe for concurrent
	// use.
	Observer obs.Observer
}

// Defaults for Tuning. A differential run executes up to three checkers, so
// the per-checker budget is kept small: a capped-out run degrades to
// inconclusive for the completeness directions while its confirmed bugs are
// still replay-validated.
const (
	DefaultMaxTransitions = 100000
	DefaultBudget         = 2 * time.Second
)

func (t Tuning) withDefaults() Tuning {
	if t.GlobalMaxTransitions <= 0 {
		t.GlobalMaxTransitions = DefaultMaxTransitions
	}
	if t.LMCMaxTransitions <= 0 {
		t.LMCMaxTransitions = DefaultMaxTransitions
	}
	if t.Budget <= 0 {
		t.Budget = DefaultBudget
	}
	return t
}

// Disagreement kinds.
const (
	// KindMissedBug: the global checker confirmed a violation but a local
	// run that reached an unsuppressed fixpoint confirmed none — a
	// completeness failure of LMC within the bound.
	KindMissedBug = "missed-bug"
	// KindOptMissedBug: LMC-GEN confirmed a violation but LMC-OPT, at an
	// unsuppressed fixpoint, confirmed none — the reduction was not
	// conservative.
	KindOptMissedBug = "opt-missed-bug"
	// KindUnsound: a locally confirmed violation failed replay — its
	// schedule does not execute, reaches a different state than claimed, or
	// reaches a state that does not violate the claimed invariant.
	KindUnsound = "unsound-report"
	// KindGlobalMissed: the global checker completed its bounded search
	// with no violation, yet a validated local counterexample fits inside
	// the same bound — a soundness failure of the baseline itself.
	KindGlobalMissed = "global-missed-bug"
	// KindReplayDiverged: the two independent replay implementations
	// (testkit and trace) disagree about a schedule's outcome.
	KindReplayDiverged = "replay-diverged"
	// KindRawDiverged: for adapter-backed machines (model.RawReplayer), the
	// uninstrumented implementation replays a validated schedule to a
	// different outcome than the instrumented replays — the interception
	// seam itself changed behavior.
	KindRawDiverged = "raw-replay-diverged"
	// KindReductionDiverged: an LMC-GEN run with the symmetry reduction
	// enabled reached an unsuppressed fixpoint without confirming a
	// violation its unreduced twin confirmed — a reduction lost a bug.
	KindReductionDiverged = "reduction-diverged"
)

// Disagreement is one detected inconsistency between checkers.
type Disagreement struct {
	Kind    string `json:"kind"`
	Checker string `json:"checker"` // which run is implicated
	Detail  string `json:"detail"`
	// Schedule is the implicated counterexample, rendered one event per
	// line, when one exists.
	Schedule string `json:"schedule,omitempty"`
}

func (d Disagreement) String() string {
	return fmt.Sprintf("[%s] %s: %s", d.Kind, d.Checker, d.Detail)
}

// RunSummary condenses one checker run for reports and artifacts.
type RunSummary struct {
	Checker     string        `json:"checker"`
	Complete    bool          `json:"complete"`
	Suppressed  bool          `json:"suppressed,omitempty"`
	Bugs        int           `json:"bugs"`
	Transitions int           `json:"transitions"`
	States      int           `json:"states"`
	Elapsed     time.Duration `json:"elapsed_ns"`
}

// Verdict is the outcome of one differential run.
type Verdict struct {
	Scenario Scenario    `json:"scenario"`
	Global   RunSummary  `json:"global"`
	GEN      RunSummary  `json:"lmc_gen"`
	OPT      *RunSummary `json:"lmc_opt,omitempty"`
	// GENReduced is the LMC-GEN run again with the symmetry reduction
	// enabled, cross-checked against its unreduced twin (reduced ⊇
	// unreduced violations). Symmetry reduces only the GEN sweep, so LMC-OPT
	// has no reduced twin.
	GENReduced *RunSummary `json:"lmc_gen_reduced,omitempty"`
	// Disagreements is empty when every cross-check passed.
	Disagreements []Disagreement `json:"disagreements,omitempty"`
	// Inconclusive notes checks skipped because a run hit its resource caps
	// before reaching a verdict-grade state (not disagreements).
	Inconclusive []string `json:"inconclusive,omitempty"`
}

// Agree reports whether every cross-check passed.
func (v *Verdict) Agree() bool { return len(v.Disagreements) == 0 }

// Run executes one differential check: the scenario's prefix is applied,
// then the global baseline, LMC-GEN and (when the scenario's invariant has
// a reduction) LMC-OPT are all run from the identical start configuration,
// and their verdicts and counterexamples are cross-validated.
func Run(sc Scenario, tun Tuning) (*Verdict, error) {
	tun = tun.withDefaults()
	inst, err := sc.Build()
	if err != nil {
		return nil, err
	}
	start, inflight, err := sc.Prepare(inst)
	if err != nil {
		return nil, err
	}

	v := &Verdict{Scenario: sc}

	g := global.Check(inst.Machine, start, global.Options{
		Invariant:       inst.GlobalInvariant(),
		Strategy:        global.DFS,
		MaxDepth:        sc.Depth,
		MaxTransitions:  tun.GlobalMaxTransitions,
		Budget:          tun.Budget,
		Observer:        tun.Observer,
		StopAtFirstBug:  true,
		InitialMessages: inflight,
	})
	v.Global = RunSummary{
		Checker: "global", Complete: g.Complete, Bugs: len(g.Bugs),
		Transitions: g.Stats.Transitions, States: g.Stats.GlobalStates,
		Elapsed: g.Stats.Elapsed,
	}

	gen := core.Check(inst.Machine, start, lmcOptions(sc, tun, inst, inflight, false))
	v.GEN = summarize("lmc-gen", gen)
	v.crossCheck(inst, start, inflight, "lmc-gen", gen, g)

	if !tun.SkipReductions && reducedTwinInformative(gen) {
		ro := lmcOptions(sc, tun, inst, inflight, false)
		ro.Reduce = core.Reductions{Symmetry: true}
		genRed := core.Check(inst.Machine, start, ro)
		s := summarize("lmc-gen-reduced", genRed)
		v.GENReduced = &s
		v.checkReduced(inst, start, inflight, "lmc-gen-reduced", gen, genRed)
	}

	var opt *core.Result
	if inst.Reduction != nil && !tun.SkipOPT {
		opt = core.Check(inst.Machine, start, lmcOptions(sc, tun, inst, inflight, true))
		s := summarize("lmc-opt", opt)
		v.OPT = &s
		v.crossCheck(inst, start, inflight, "lmc-opt", opt, g)

		// GEN→OPT completeness: the reduction must not lose violations.
		if len(gen.Bugs) > 0 && len(opt.Bugs) == 0 {
			if opt.Complete && !opt.Suppressed {
				v.add(Disagreement{
					Kind: KindOptMissedBug, Checker: "lmc-opt",
					Detail:   fmt.Sprintf("LMC-GEN confirmed %d violation(s) but LMC-OPT reached an unsuppressed fixpoint with none", len(gen.Bugs)),
					Schedule: gen.Bugs[0].Schedule.String(),
				})
			} else {
				v.note("lmc-opt found no bugs but was bounded (complete=%v suppressed=%v)", opt.Complete, opt.Suppressed)
			}
		}
	}

	// Validate the baseline's own counterexamples through the independent
	// replayers too: global search is sound by construction, so a failure
	// here means the baseline's path reconstruction or a replayer is wrong.
	for i, b := range g.Bugs {
		v.validateSchedule(inst, start, inflight, "global", b.Violation.Invariant,
			b.Schedule, nil, fmt.Sprintf("global bug %d", i))
	}

	return v, nil
}

// lmcOptions maps a scenario plus tuning onto the local checker's options —
// factored out so tests can run core.Check with exactly the configuration
// Run uses.
func lmcOptions(sc Scenario, tun Tuning, inst *Instance, inflight []model.Message, useReduction bool) core.Options {
	tun = tun.withDefaults()
	opt := core.Options{
		Invariant:       inst.Invariant,
		LocalInvariants: inst.Locals,
		InitialMessages: inflight,
		DupLimit:        sc.DupLimit,
		LocalBound:      sc.LocalBound,
		MaxTransitions:  tun.LMCMaxTransitions,
		Budget:          tun.Budget,
		Observer:        tun.Observer,
		// One confirmed violation per run is all the comparison needs;
		// confirming every violation in the space (the onepaxos live state
		// has thousands) would dwarf the exploration itself.
		StopAtFirstBug: true,
	}
	if !tun.DisableDeepening {
		opt.LocalBoundStep = 1
		opt.MaxLocalBound = sc.MaxLocalBound
	}
	if useReduction {
		opt.Reduction = inst.Reduction
	}
	return opt
}

func summarize(name string, r *core.Result) RunSummary {
	return RunSummary{
		Checker: name, Complete: r.Complete, Suppressed: r.Suppressed,
		Bugs: len(r.Bugs), Transitions: r.Stats.Transitions,
		States: r.Stats.NodeStates, Elapsed: r.Stats.Elapsed,
	}
}

// crossCheck applies the two agreement directions to one local run.
func (v *Verdict) crossCheck(inst *Instance, start model.SystemState, inflight []model.Message,
	name string, r *core.Result, g *global.Result) {

	// Direction 1 — no missed bugs within bound: a global-confirmed
	// violation must be confirmed locally, provided the local run actually
	// exhausted its space (fixpoint, no suppressed local events).
	if len(g.Bugs) > 0 && len(r.Bugs) == 0 {
		if r.Complete && !r.Suppressed {
			v.add(Disagreement{
				Kind: KindMissedBug, Checker: name,
				Detail: fmt.Sprintf("global confirmed %q but %s reached an unsuppressed fixpoint with no confirmed violation",
					g.Bugs[0].Violation.Invariant, name),
				Schedule: g.Bugs[0].Schedule.String(),
			})
		} else {
			v.note("%s found no bugs but was bounded (complete=%v suppressed=%v)", name, r.Complete, r.Suppressed)
		}
	}

	// Direction 2 — no unsound reports: every confirmed violation must
	// replay to the claimed state and violate the claimed invariant.
	for i, b := range r.Bugs {
		wantFP := b.System.Fingerprint()
		v.validateSchedule(inst, start, inflight, name, b.Violation.Invariant,
			b.Schedule, &wantFP, fmt.Sprintf("%s bug %d", name, i))
	}

	// Direction 3 — the bounded baseline must not have missed a validated
	// local counterexample that fits inside its own bound.
	if g.Complete && len(g.Bugs) == 0 {
		for _, b := range r.Bugs {
			if len(b.Schedule) > 0 && len(b.Schedule) <= v.Scenario.Depth &&
				v.scheduleReplays(inst, start, inflight, b) {
				v.add(Disagreement{
					Kind: KindGlobalMissed, Checker: "global",
					Detail: fmt.Sprintf("%s confirmed %q with a depth-%d schedule but the complete depth-%d global search found nothing",
						name, b.Violation.Invariant, len(b.Schedule), v.Scenario.Depth),
					Schedule: b.Schedule.String(),
				})
				break // one witness is enough
			}
		}
	}
}

// reducedTwinInformative reports whether running the reduced twin of an
// unreduced run can produce a verdict-grade comparison. When the unreduced
// run burned its whole budget without confirming anything, the conservatism
// direction (reduced ⊇ unreduced violations) is vacuous and the twin would
// only re-burn the same budget — the dominant cost on budget-bound
// scenarios like the paxos live state, where GEN drowns in Cartesian
// combination either way.
func reducedTwinInformative(r *core.Result) bool {
	return len(r.Bugs) > 0 || (r.Complete && !r.Suppressed)
}

// checkReduced applies the reduction-conservatism directions to a reduced
// run against its unreduced twin: every violation the unreduced run
// confirms must be confirmed by the reduced run (up to StopAtFirstBug,
// presence per run), and every reduced-run counterexample — including those
// confirmed by the orbit sweep — must replay and violate its claimed
// invariant. A reduced run that was cut off by a budget or transition cap is
// inconclusive, not divergent: the symmetry skip relies on the canonical
// representative being enumerated later in the same pass, which a mid-run
// stop can prevent, exactly like the completeness gating of the other
// directions.
func (v *Verdict) checkReduced(inst *Instance, start model.SystemState, inflight []model.Message,
	name string, unreduced, reduced *core.Result) {

	if len(unreduced.Bugs) > 0 && len(reduced.Bugs) == 0 {
		if reduced.Complete && !reduced.Suppressed {
			v.add(Disagreement{
				Kind: KindReductionDiverged, Checker: name,
				Detail: fmt.Sprintf("unreduced run confirmed %q but %s reached an unsuppressed fixpoint with no confirmed violation",
					unreduced.Bugs[0].Violation.Invariant, name),
				Schedule: unreduced.Bugs[0].Schedule.String(),
			})
		} else {
			v.note("%s found no bugs but was bounded (complete=%v suppressed=%v)",
				name, reduced.Complete, reduced.Suppressed)
		}
	}
	for i, b := range reduced.Bugs {
		wantFP := b.System.Fingerprint()
		v.validateSchedule(inst, start, inflight, name, b.Violation.Invariant,
			b.Schedule, &wantFP, fmt.Sprintf("%s bug %d", name, i))
	}
}

// scheduleReplays reports whether a bug's schedule replays cleanly (used to
// confirm a KindGlobalMissed witness really is realizable before accusing
// the baseline).
func (v *Verdict) scheduleReplays(inst *Instance, start model.SystemState, inflight []model.Message, b core.Bug) bool {
	rr := trace.ReplayWith(inst.Machine, start, inflight, b.Schedule)
	return rr.Err == nil && rr.Fingerprint() == b.System.Fingerprint()
}

// validateSchedule replays one counterexample schedule through both replay
// implementations and cross-checks: both must succeed, agree with each
// other, reach the claimed state (when a fingerprint is claimed), and the
// final state must violate the named invariant.
func (v *Verdict) validateSchedule(inst *Instance, start model.SystemState, inflight []model.Message,
	checker, invName string, sched trace.Schedule, wantFP *codec.Fingerprint, label string) {

	rr := trace.ReplayWith(inst.Machine, start, inflight, sched)
	tkFinal, tkErr := testkit.Replay(inst.Machine, start, inflight, sched)

	if (rr.Err == nil) != (tkErr == nil) {
		v.add(Disagreement{
			Kind: KindReplayDiverged, Checker: checker,
			Detail:   fmt.Sprintf("%s: trace replay err=%v but testkit replay err=%v", label, rr.Err, tkErr),
			Schedule: sched.String(),
		})
		return
	}
	if rr.Err != nil {
		v.add(Disagreement{
			Kind: KindUnsound, Checker: checker,
			Detail:   fmt.Sprintf("%s: schedule does not replay: %v", label, rr.Err),
			Schedule: sched.String(),
		})
		return
	}
	if rr.Fingerprint() != tkFinal.Fingerprint() {
		v.add(Disagreement{
			Kind: KindReplayDiverged, Checker: checker,
			Detail:   fmt.Sprintf("%s: trace and testkit replays reach different final states", label),
			Schedule: sched.String(),
		})
		return
	}
	if wantFP != nil && rr.Fingerprint() != *wantFP {
		v.add(Disagreement{
			Kind: KindUnsound, Checker: checker,
			Detail:   fmt.Sprintf("%s: schedule replays to a state other than the one reported", label),
			Schedule: sched.String(),
		})
		return
	}
	// Third replay direction for machines wrapping a real implementation:
	// the schedule must also execute on the uninstrumented code and land in
	// the same final state the instrumented replays reached.
	if raw, ok := inst.Machine.(model.RawReplayer); ok {
		rawFinal, rawErr := raw.ReplayRaw(start, inflight, sched)
		if rawErr != nil {
			v.add(Disagreement{
				Kind: KindRawDiverged, Checker: checker,
				Detail:   fmt.Sprintf("%s: uninstrumented replay failed: %v", label, rawErr),
				Schedule: sched.String(),
			})
			return
		}
		if rawFinal.Fingerprint() != rr.Fingerprint() {
			v.add(Disagreement{
				Kind: KindRawDiverged, Checker: checker,
				Detail:   fmt.Sprintf("%s: uninstrumented replay reaches a different final state", label),
				Schedule: sched.String(),
			})
			return
		}
	}
	inv := inst.InvariantByName(invName)
	if inv == nil {
		v.add(Disagreement{
			Kind: KindUnsound, Checker: checker,
			Detail: fmt.Sprintf("%s: reports unknown invariant %q", label, invName),
		})
		return
	}
	if inv.Check(rr.Final) == nil {
		v.add(Disagreement{
			Kind: KindUnsound, Checker: checker,
			Detail:   fmt.Sprintf("%s: replayed final state does not violate %q", label, invName),
			Schedule: sched.String(),
		})
	}
}

func (v *Verdict) add(d Disagreement) { v.Disagreements = append(v.Disagreements, d) }

func (v *Verdict) note(format string, args ...any) {
	v.Inconclusive = append(v.Inconclusive, fmt.Sprintf(format, args...))
}
