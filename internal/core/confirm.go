package core

import (
	"sync/atomic"
	"time"

	"lmc/internal/codec"
	"lmc/internal/model"
	"lmc/internal/obs"
	"lmc/internal/spec"
	"lmc/internal/trace"
)

// This file is the verdict path: the one place a preliminary violation
// becomes a cached verdict and, when sound, a reported Bug (Figure 9 lines
// 19–21). Every origin of a violation — the start-state check, the GEN
// sweep's batches, the OPT witness leaf, the local-invariant leaf and the
// fixpoint orbit sweep — hands its violating combination to settle; nothing
// else reads or writes the verdict cache, searches predecessor paths,
// replays a schedule, appends to Result.Bugs or latches StopFirstBug.

// prelim is one preliminary violation found during combination enumeration,
// tagged with its global enumeration index so confirmation runs in the
// canonical sequential order regardless of how the product was chunked.
type prelim struct {
	idx   int
	fp    codec.Fingerprint
	combo []*nodeState
	v     *spec.Violation
}

// newPrelim records a violation found on a scratch combination. The members
// are copied out, and a violation that retained the scratch system state
// (spec.Violate stores it as-is) is repointed at a stable copy before the
// scratch is reused.
func newPrelim(idx int, combo []*nodeState, ss model.SystemState, v *spec.Violation) prelim {
	if len(v.System) == len(ss) && len(ss) > 0 && &v.System[0] == &ss[0] {
		v.System = append(model.SystemState(nil), ss...)
	}
	return prelim{idx: idx, combo: append([]*nodeState(nil), combo...), v: v}
}

// confirmResult is the outcome of the run step for one combination.
type confirmResult struct {
	sound     bool
	sched     trace.Schedule
	soundTime time.Duration
	seqs      int // sequence combinations examined (Stats.SequencesChecked)
	// calls is the number of soundness invocations the result accounts for:
	// one when the run was a confirmation of its own (GEN batches, the orbit
	// sweep), none for a leaf of a witness search — the search was charged
	// once as a whole — and for the start state, which needs no search.
	calls int
}

// confirms reports whether preliminary violations go on to soundness
// verification at all. Off is Figure 13's "LMC-system-state" configuration:
// violations are counted, never confirmed or reported, whatever their origin.
func (c *checker) confirms() bool { return !c.opt.DisableSoundness }

// runConfirm is the run step: the predecessor-path search for a schedule
// realizing combo (fingerprint fp), then the replay of that schedule on the
// real handlers. It is pure given the frozen exploration structures — c.m,
// c.start and c.opt are only read — so confirmBatch precomputes it on the
// worker pool, each job with a scratch of its own, and merges the counters
// it returns at the canonical point.
func (c *checker) runConfirm(combo []*nodeState, fp codec.Fingerprint, pathCap int, budget *int, sc *soundScratch) confirmResult {
	var r confirmResult
	t0 := time.Now()
	r.sound, r.sched = c.isStateSound(combo, pathCap, budget, &r.seqs, sc)
	r.soundTime = time.Since(t0)
	if r.sound {
		r.sound = c.replayConfirms(r.sched, fp)
	}
	return r
}

// replayConfirms is the final defense on a sound witness: re-execute the
// schedule through the model-level replayer (real handlers, real
// message-consuming network) and confirm it reproduces the violating
// system state. When the machine wraps a real implementation behind an
// adapter (model.RawReplayer — package actorcheck), the schedule is
// additionally re-driven through the *uninstrumented* implementation:
// live instances mutating in place, no snapshot/restore between events.
// A bug is only reported when both executions reach the claimed state, so
// adapter-found violations are bugs of the real code, never artifacts of
// the interception seam.
func (c *checker) replayConfirms(sched trace.Schedule, fp codec.Fingerprint) bool {
	rr := trace.ReplayWith(c.m, c.start, c.opt.InitialMessages, sched)
	if rr.Err != nil || rr.Final.Fingerprint() != fp {
		return false
	}
	if raw, ok := c.m.(model.RawReplayer); ok {
		final, err := raw.ReplayRaw(c.start, c.opt.InitialMessages, sched)
		if err != nil || final.Fingerprint() != fp {
			return false
		}
	}
	return true
}

// settle is the sequential step: it decides the preliminary violation v of
// combo and reports whether combo is a confirmed bug. A combination already
// decided keeps its verdict (a system state is verified, and reported, at
// most once — §4.2 discusses caching violated system states). Otherwise the
// verdict is pre when the caller precomputed the run step, or an inline run
// under the calling witness search's budget and on its scratch; its counters
// are charged, the verdict is cached, and a sound one is reported — the only
// append to Result.Bugs and the only latch of StopFirstBug.
func (c *checker) settle(combo []*nodeState, v *spec.Violation, pre *confirmResult, budget *int) bool {
	if !c.confirms() {
		return false
	}
	fp := comboFP(combo)
	if sound, decided := c.verdicts[fp]; decided {
		return sound
	}
	if pre == nil {
		r := c.runConfirm(combo, fp, witnessPathCap, budget, &c.wit.sound)
		pre = &r
	}
	c.res.Stats.SoundnessCalls += pre.calls
	c.res.Stats.SoundnessTime += pre.soundTime
	c.res.Stats.SequencesChecked += pre.seqs
	c.verdicts[fp] = pre.sound
	if !pre.sound {
		return false
	}
	sys := c.comboSystem(combo).Clone()
	if v.System == nil {
		// A node-local violation names no system state of its own; the
		// witness that realizes it is the one it is reported on.
		v.System = sys.Clone()
	}
	c.res.Stats.ConfirmedBugs++
	c.res.Bugs = append(c.res.Bugs, Bug{
		Violation: v,
		Schedule:  pre.sched,
		System:    sys,
		Depth:     comboDepth(combo),
	})
	if c.opt.StopAtFirstBug {
		c.stop(obs.StopFirstBug)
	}
	return true
}

// confirmBatch settles preliminary violations in canonical enumeration
// order. Each distinct undecided combination is a soundness call of its own
// — full per-node path cap, fresh sequence budget — whose run step is
// precomputed on the worker pool; the sequential merge then replays the
// exact bookkeeping of an inline confirmation loop, charging only the
// confirmations that actually execute before a StopAtFirstBug cutoff. The
// Budget's deadline is looked at before the job table is built and every
// 1,024 violations while it is; a job that finds it passed does not run, and
// the merge stops with StopBudget at the first such job.
func (c *checker) confirmBatch(prelims []prelim) {
	if len(prelims) == 0 || !c.confirms() {
		return
	}
	// Confirmation is soundness work (path enumeration plus replay); label
	// it so profiles separate it from the combination sweep that found it.
	c.underPhase("soundness", func() {
		var jobs []*prelim
		need := make(map[codec.Fingerprint]int)
		for i := range prelims {
			if i%1024 == 0 && c.pastDeadline() {
				c.stop(obs.StopBudget)
				return
			}
			p := &prelims[i]
			p.fp = comboFP(p.combo)
			if _, decided := c.verdicts[p.fp]; decided {
				continue
			}
			if _, dup := need[p.fp]; !dup {
				need[p.fp] = len(jobs)
				jobs = append(jobs, p)
			}
		}
		results := make([]confirmResult, len(jobs))
		var late atomic.Bool // some job found the deadline passed
		c.runParallel(len(jobs), func(i int) {
			if late.Load() || c.pastDeadline() {
				late.Store(true)
				return // calls stays 0: the job did not run
			}
			budget := maxSequencesPerCheck
			results[i] = c.runConfirm(jobs[i].combo, jobs[i].fp, maxPathsPerNode, &budget, new(soundScratch))
			results[i].calls = 1
		})
		for i := range prelims {
			if c.stopped {
				return
			}
			if j, ok := need[prelims[i].fp]; ok {
				if results[j].calls == 0 {
					c.stop(obs.StopBudget)
					return
				}
				c.settle(prelims[i].combo, prelims[i].v, &results[j], nil)
			}
		}
	})
}
