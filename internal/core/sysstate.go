package core

import (
	"container/heap"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lmc/internal/codec"
	"lmc/internal/model"
	"lmc/internal/obs"
	"lmc/internal/spec"
	"lmc/internal/trace"
)

// replayConfirms is the final defense on a sound witness: re-execute the
// schedule through the model-level replayer (real handlers, real
// message-consuming network) and confirm it reproduces the violating
// system state. When the machine wraps a real implementation behind an
// adapter (model.RawReplayer — package actorcheck), the schedule is
// additionally re-driven through the *uninstrumented* implementation:
// live instances mutating in place, no snapshot/restore between events.
// A bug is only reported when both executions reach the claimed state, so
// adapter-found violations are bugs of the real code, never artifacts of
// the interception seam. Concurrency-safe (parallel soundness workers call
// it): c.start and c.opt are read-only here.
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

// viewStates is the visited-state list of node n as seen at a discovery's
// virtual time. Deferred witness searches pass a nil view and see everything
// visited by the time they run, matching the sequential algorithm's deferral
// semantics.
func (c *checker) viewStates(n int, view []int) []*nodeState {
	sp := c.spaces[n]
	if view == nil {
		return sp.states
	}
	return sp.states[:view[n]]
}

// visibleMembers is the prefix of an interest group visible under view.
// Members join in discovery order, so their seq numbers are ascending and
// the visible prefix is found by binary search.
func (c *checker) visibleMembers(g *interestGroup, n int, view []int) []*nodeState {
	if view == nil {
		return g.members
	}
	lim := view[n]
	i := sort.Search(len(g.members), func(i int) bool { return g.members[i].seq >= lim })
	return g.members[:i]
}

// comboFP fingerprints a combination without re-encoding any member state:
// node-state fingerprints are memoized at discovery, and
// model.SystemState.Fingerprint is the same order-sensitive combination of
// member fingerprints.
func comboFP(combo []*nodeState) codec.Fingerprint {
	h := codec.NewHasher()
	for _, ns := range combo {
		h.Add(ns.fp)
	}
	return h.Sum()
}

// checkStartState evaluates the invariant once on the start system state
// itself, before exploration.
func (c *checker) checkStartState() {
	if c.opt.Invariant == nil || c.opt.DisableSystemStates {
		return
	}
	if c.log.owners > 1 {
		// Worker replica: the start-state check is coordinator work (it is
		// not anchored at a discovery, so it has no report slot).
		return
	}
	combo := make([]*nodeState, len(c.spaces))
	for n := range c.spaces {
		combo[n] = c.spaces[n].states[0]
	}
	if c.opt.Reduction != nil && !c.comboConflicts(combo) {
		// LMC-OPT admission applies to the start state too: with no
		// conflicting interests it cannot violate the invariant.
		return
	}
	c.res.Stats.SystemStates++
	c.res.Stats.InvariantChecks++
	if v := c.opt.Invariant.Check(c.comboSystem(combo)); v != nil {
		c.res.Stats.PreliminaryViolations++
		// A violating start state seeds the orbit sweep too: its permuted
		// arrangements may become realizable (and skipped) later.
		c.recordOrbit(combo)
		// The start state is the live state of a real run: trivially sound.
		fp := comboFP(combo)
		if !c.reported[fp] {
			c.reported[fp] = true
			c.res.Stats.ConfirmedBugs++
			c.res.Bugs = append(c.res.Bugs, Bug{
				Violation: v,
				System:    c.comboSystem(combo),
			})
			if c.opt.StopAtFirstBug {
				c.stop(obs.StopFirstBug)
			}
		}
	}
}

// checkNewState is Procedure checkSystemInvariant of Figure 9: after node
// state ns is newly visited, materialize every system state that combines
// ns with already-visited states of the other nodes, and evaluate the
// invariant on each. Combinations of previously visited states were checked
// in earlier rounds, so fixing ns avoids revisiting system states (§4.2,
// "System states"). The other nodes' lists are taken at the discovery's
// virtual-time view, so a deferred (round-barrier) check sees exactly the
// states an inline sequential check would have seen.
func (c *checker) checkNewState(ns *nodeState, view []int) {
	if c.opt.Invariant == nil || c.opt.DisableSystemStates {
		return
	}
	t0 := time.Now()
	defer func() { c.res.Stats.SystemStateTime += time.Since(t0) }()

	if c.opt.Reduction != nil {
		c.checkNewStateOpt(ns, view)
		return
	}

	// Worker replica (one that kept its invariant sweeps them): sweep only
	// the anchors whose fingerprint falls in this replica's range, and
	// report each sweep's outcome. Foreign anchors are the coordinator's (or
	// another worker's) work.
	if c.log.owners > 1 {
		if !c.log.owns(ns.fp) {
			return
		}
		states0 := c.res.Stats.SystemStates
		prelims0 := c.res.Stats.PreliminaryViolations
		c.forEachComboGEN(ns, view)
		c.log.batch.Anchors = append(c.log.batch.Anchors, AnchorReport{
			Node:     int(ns.node),
			Seq:      ns.seq,
			Violated: c.res.Stats.PreliminaryViolations > prelims0,
			Combos:   c.res.Stats.SystemStates - states0,
			MaxDepth: c.res.Stats.MaxDepth,
		})
		return
	}

	// Coordinator side: a clean report from the owning worker stands in for
	// the whole sweep — its combination count merges into the counters (the
	// worker enumerated the identical product). A violated or missing report
	// falls through to the inline sweep, so violations are confirmed and
	// reported exactly canonically.
	if rep := c.log.anchor(int(ns.node), ns.seq); rep != nil && !rep.Violated {
		c.res.Stats.SystemStates += rep.Combos
		c.res.Stats.InvariantChecks += rep.Combos
		if rep.MaxDepth > c.res.Stats.MaxDepth {
			c.res.Stats.MaxDepth = rep.MaxDepth
		}
		return
	}

	c.forEachComboGEN(ns, view)
}

// forEachComboGEN runs the LMC-GEN sweep anchored at ns: the full
// Cartesian product of ns with the other nodes' visited states under the
// discovery's view.
func (c *checker) forEachComboGEN(ns *nodeState, view []int) {
	lists := make([][]*nodeState, len(c.spaces))
	for n := range c.spaces {
		if n == int(ns.node) {
			lists[n] = []*nodeState{ns}
		} else {
			lists[n] = c.viewStates(n, view)
		}
	}
	c.forEachCombo(lists)
}

// checkNewStateOpt is the invariant-specific system-state creation of
// LMC-OPT (§4.2): only node states with an invariant-relevant interest
// participate, other nodes are represented by a non-interesting filler
// state, and a combination is materialized only when at least one pair of
// interests conflicts.
//
// With a spec.Keyer reduction, interesting states are pre-grouped by
// interest key and conflicts are decided once per key profile — the shape
// of the paper's Paxos mapping ("we map the node states to the values that
// are chosen in them") — so the non-conflicting case costs a handful of key
// comparisons instead of a scan of the whole Cartesian product. Groups with
// no member visible at the discovery's virtual time did not exist yet from
// the sequential algorithm's point of view and are skipped without leaving
// any witnessed mark.
func (c *checker) checkNewStateOpt(ns *nodeState, view []int) {
	if !ns.interesting {
		return
	}
	// The violation, if any, lives in a pair of node states whose interests
	// conflict; the other nodes' states only decide whether the pair is
	// co-reachable in a real run. Materializing the full Cartesian product
	// of completions up front would bury the checker (one invalid chooser
	// times millions of completions); instead, for each conflicting
	// (state, group) pair the witness search below iterates candidate
	// members and completions lazily, invariant-checks each candidate
	// system state, soundness-checks the violating ones, and stops at the
	// first confirmed witness. Verdicts are cached per (state, group) —
	// with the same deliberate staleness the paper accepts for predecessor
	// updates (§4.2): new node states trigger fresh searches of their own.
	for k, sp := range c.spaces {
		if k == int(ns.node) {
			continue
		}
		if c.keyer != nil {
			for _, key := range sp.groupOrder {
				g := sp.groups[key]
				if len(c.visibleMembers(g, k, view)) == 0 {
					continue
				}
				if !c.opt.Reduction.Conflict(ns.interest, g.interest) {
					continue
				}
				c.searchWitness(ns, k, "g:"+key, false, view)
				if c.stopped {
					return
				}
			}
			continue
		}
		c.searchWitness(ns, k, "all", false, view)
		if c.stopped {
			return
		}
	}
}

// resolveCandidates returns the conflicting candidate states of node k for
// a witness search, restricted to the search's view. Deferred searches
// resolve with a nil view at run time, so they see members that joined in
// the meantime.
func (c *checker) resolveCandidates(ns *nodeState, k int, groupKey string, view []int) []*nodeState {
	sp := c.spaces[k]
	if g, ok := c.keyerGroup(sp, groupKey); ok {
		return c.visibleMembers(g, k, view)
	}
	var cands []*nodeState
	for _, b := range c.viewStates(k, view) {
		if b.interesting && c.opt.Reduction.Conflict(ns.interest, b.interest) {
			cands = append(cands, b)
		}
	}
	return cands
}

func (c *checker) keyerGroup(sp *space, groupKey string) (*interestGroup, bool) {
	if len(groupKey) < 2 || groupKey[:2] != "g:" {
		return nil, false
	}
	g := sp.groups[groupKey[2:]]
	return g, g != nil
}

// witnessPrepFanout is the candidate count above which a witness search
// pre-resolves its per-candidate missing sets and coverage verdicts on the
// worker pool.
const witnessPrepFanout = 16

// searchWitness looks for a real run in which ns coexists with one of the
// conflicting candidate states of node k. Other nodes are completed with
// any visited state (within the search's view), iterated lazily in
// discovery order — their events are what generated the messages the pair
// consumed. Each candidate system state is materialized and
// invariant-checked; a violating one goes through soundness verification;
// the first confirmed witness is reported and ends the search. The whole
// search counts as one soundness-verification invocation, with the sequence
// budget shared across candidates.
//
// Unless force is set, the search defers to the pending queue when the
// soundness share is exhausted, so exploration keeps progressing.
//
// The search runs on the incremental index layer (index.go): missing sets
// come from the pair's flow memos, coverage questions go to the producer
// index, and candidate pairs whose refutation evidence still stands are
// skipped outright. When the candidate list is large and a worker pool is
// available, the per-candidate missing sets are pre-resolved in parallel —
// pure functions of immutable memos — and committed in candidate order, so
// the sequential walk below consumes them with the exact sequential budget
// charges.
func (c *checker) searchWitness(ns *nodeState, k int, groupKey string, force bool, view []int) {
	cacheKey := witnessKey{fp: ns.fp, node: k, group: groupKey}
	if _, done := c.witnessed[cacheKey]; done {
		return
	}
	if !force && c.soundnessShareExceeded() {
		heap.Push(&c.pending, pendingSearch{ns: ns, node: k, group: groupKey})
		return
	}
	c.witnessed[cacheKey] = struct{}{}
	c.underPhase("soundness", func() { c.witnessSearch(ns, k, groupKey, view) })
}

// witnessSearch is the body of searchWitness, separated so the whole search
// (including the path enumeration and replay it triggers) profiles under
// the soundness phase label.
func (c *checker) witnessSearch(ns *nodeState, k int, groupKey string, view []int) {
	cands := c.resolveCandidates(ns, k, groupKey, view)
	if len(cands) == 0 {
		return
	}

	c.res.Stats.SoundnessCalls++
	budget := c.opt.MaxSequencesPerCheck

	completionNodes := make([]int, 0, len(c.spaces)-2)
	for n := range c.spaces {
		if n != int(ns.node) && n != k {
			completionNodes = append(completionNodes, n)
		}
	}
	// The completion frontier visible to this search: how many states of
	// each completion node the Cartesian walk below can range over. This is
	// both the walk's input size and the evidence recorded by a
	// completed-walk refutation.
	curLimits := make([]int, len(completionNodes))
	for i, n := range completionNodes {
		curLimits[i] = c.viewLimit(n, view)
	}

	combo := make([]*nodeState, len(c.spaces))
	combo[ns.node] = ns
	deadlineTick := 0

	var preMissing [][]codec.Fingerprint
	if c.workers >= 2 && len(cands) >= witnessPrepFanout {
		// Memoize the shared pair member's memos before fanning out: flowOf
		// (and the creationPath walk under it) writes only the state it is
		// called on, so each parallel task touches a distinct candidate.
		flowOf(ns)
		preMissing = make([][]codec.Fingerprint, len(cands))
		c.runParallel(len(cands), func(i int) {
			preMissing[i] = c.pairMissing(ns, cands[i])
		})
	}

	type orderKey struct {
		node int
		miss codec.Fingerprint
	}
	orderCache := make(map[orderKey][]*nodeState)

	for ci, b := range cands {
		if c.stopped || budget <= 0 {
			return
		}
		// Examining a candidate costs budget even when the feasibility
		// check refutes it without materializing anything — conflicting
		// groups can hold thousands of members, and the walk must stay
		// within the per-search allowance. Ordering a node's completions by
		// coverage scans that node's whole visited list, so it is charged
		// proportionally below.
		budget--
		if c.pollDeadline(&deadlineTick) {
			c.stop(obs.StopBudget)
			return
		}
		combo[k] = b

		// What must the completion nodes supply? Every message the pair's
		// creation paths consume beyond what the pair itself (or the seeded
		// network) generates. Candidates that cannot cover a missing
		// message are tried last; a message nobody can cover refutes this
		// pair outright (modulo alternate-path generation, the same kind of
		// incompleteness the paper's caps accept).
		var missing []codec.Fingerprint
		if preMissing != nil {
			missing = preMissing[ci]
		} else {
			missing = c.pairMissing(ns, b)
		}
		missKey := codec.CombineUnordered(missing)
		key := pairKeyOf(ns, b, missKey)
		oc := c.outcomeOf(key)

		// Epoch gate 1: the pair was refuted as infeasible, and at least one
		// of the fingerprints that had no producer then still has none — the
		// verdict cannot have changed. Once the producer index gains covering
		// states for all of them the evidence is void, and the pair goes back
		// through the full feasibility check against the current view.
		if oc != nil && len(oc.uncovered) > 0 {
			still := false
			for _, fp := range oc.uncovered {
				if !c.coveredByAny(completionNodes, fp, view) {
					still = true
					break
				}
			}
			if still {
				c.res.Stats.WitnessSkips++
				continue
			}
			oc.uncovered = nil
		}

		// Feasibility, via the producer index. All uncovered fingerprints are
		// collected — not just the first — so a refutation records the full
		// evidence the retry gate above must see disproven.
		var uncovered []codec.Fingerprint
		for _, fp := range missing {
			if !c.coveredByAny(completionNodes, fp, view) {
				uncovered = append(uncovered, fp)
			}
		}
		if len(uncovered) > 0 {
			if rec := c.ensureOutcome(key); rec != nil {
				rec.uncovered = uncovered
			}
			continue
		}

		// Epoch gate 2: a completed walk refuted this pair over a completion
		// frontier at least as large. The current walk would enumerate a
		// subset of those combinations, and their verdicts are deterministic
		// repeats (invariant checks are pure; soundness verdicts are cached
		// globally) — skip it.
		if oc != nil && oc.refutedUnder(curLimits) {
			c.res.Stats.WitnessSkips++
			continue
		}

		lists := make([][]*nodeState, len(completionNodes))
		for i, n := range completionNodes {
			okey := orderKey{node: n, miss: missKey}
			ordered, ok := orderCache[okey]
			if !ok {
				ordered, _ = orderByCoverage(c.viewStates(n, view), missing)
				orderCache[okey] = ordered
				// A coverage scan touches every visited state of the node;
				// short lists still cost at least one unit.
				cost := len(ordered) / 64
				if cost < 1 {
					cost = 1
				}
				budget -= cost
			}
			lists[i] = ordered
		}
		if budget <= 0 {
			return
		}

		var walk func(i int) bool
		walk = func(i int) bool {
			if c.stopped || budget <= 0 {
				return false
			}
			if i == len(lists) {
				if c.pollDeadline(&deadlineTick) {
					c.stop(obs.StopBudget)
					return false
				}
				return c.tryWitness(combo, int(ns.node), k, &budget)
			}
			for _, s := range lists[i] {
				combo[completionNodes[i]] = s
				if walk(i + 1) {
					return true
				}
				if c.stopped || budget <= 0 {
					return false
				}
			}
			return false
		}
		if walk(0) {
			return
		}
		if c.stopped {
			return
		}
		if budget > 0 {
			// The walk ran to completion (not cut short by budget or a stop
			// criterion) without finding a witness: record the refuted
			// frontier so re-encounters under it are skipped.
			if rec := c.ensureOutcome(key); rec != nil {
				rec.addRefuted(curLimits)
			}
		}
	}
}

// confirmLocalViolation runs the witness search for a node-local invariant
// violation: the violating state alone is the "pair"; every other node is a
// completion ranged over lazily (within the discovery's view), ordered by
// which missing messages its creation path can supply.
func (c *checker) confirmLocalViolation(ns *nodeState, v *spec.Violation, view []int) {
	cacheKey := witnessKey{fp: ns.fp, node: int(ns.node), group: "local:" + v.Invariant}
	if _, done := c.witnessed[cacheKey]; done {
		return
	}
	c.witnessed[cacheKey] = struct{}{}
	c.underPhase("soundness", func() { c.confirmLocal(ns, v, view) })
}

// confirmLocal is the body of confirmLocalViolation, separated so the
// search profiles under the soundness phase label.
func (c *checker) confirmLocal(ns *nodeState, v *spec.Violation, view []int) {
	c.res.Stats.SoundnessCalls++
	budget := c.opt.MaxSequencesPerCheck

	completionNodes := make([]int, 0, len(c.spaces)-1)
	for n := range c.spaces {
		if n != int(ns.node) {
			completionNodes = append(completionNodes, n)
		}
	}
	missing := c.missingFromFlows(flowOf(ns), nil)
	lists := make([][]*nodeState, len(completionNodes))
	for i, n := range completionNodes {
		lists[i], _ = orderByCoverage(c.viewStates(n, view), missing)
	}

	combo := make([]*nodeState, len(c.spaces))
	combo[ns.node] = ns
	deadlineTick := 0
	var walk func(i int) bool
	walk = func(i int) bool {
		if c.stopped || budget <= 0 {
			return false
		}
		if i == len(lists) {
			if c.pollDeadline(&deadlineTick) {
				c.stop(obs.StopBudget)
				return false
			}
			ss := c.comboSystem(combo)
			fp := comboFP(combo)
			if verdict, cached := c.verdicts[fp]; cached {
				return verdict && c.reported[fp]
			}
			t0 := time.Now()
			var tally soundTally
			sound, sched := c.witnessSequences(combo, int(ns.node), int(ns.node), &budget, &tally)
			c.res.Stats.SoundnessTime += time.Since(t0)
			c.addTally(&tally)
			if sound && !c.opt.DisableReplay {
				sound = c.replayConfirms(sched, fp)
			}
			c.verdicts[fp] = sound
			if !sound {
				return false
			}
			c.reported[fp] = true
			c.res.Stats.ConfirmedBugs++
			vv := *v
			vv.System = ss.Clone()
			c.res.Bugs = append(c.res.Bugs, Bug{
				Violation: &vv,
				Schedule:  sched,
				System:    ss.Clone(),
				Depth:     comboDepth(combo),
			})
			if c.opt.StopAtFirstBug {
				c.stop(obs.StopFirstBug)
			}
			return true
		}
		for _, s := range lists[i] {
			combo[completionNodes[i]] = s
			if walk(i + 1) {
				return true
			}
			if c.stopped || budget <= 0 {
				return false
			}
		}
		return false
	}
	walk(0)
}

// pairMissing lists the message fingerprints the creation paths of the two
// pair members consume but neither generates (and the seeded network does
// not supply), counting multiplicities. It is a two-pointer merge of the
// members' flow memos; missingOf below is the definitional multiset walk it
// replaced, kept as the oracle the differential tests compare against.
func (c *checker) pairMissing(a, b *nodeState) []codec.Fingerprint {
	return c.missingFromFlows(flowOf(a), flowOf(b))
}

// missingOf computes the missing set of any member set directly from the
// creation paths. Superseded on the hot path by the flow memos (index.go);
// retained as the reference implementation for tests.
func (c *checker) missingOf(states ...*nodeState) []codec.Fingerprint {
	supply := make(map[codec.Fingerprint]int)
	for _, fp := range c.initialNet {
		supply[fp]++
	}
	var need []codec.Fingerprint
	for _, ns := range states {
		for _, e := range creationPath(ns) {
			if e.kind == model.NetworkEvent {
				need = append(need, e.msgFP)
			}
			for _, g := range e.generated {
				supply[g]++
			}
		}
	}
	var missing []codec.Fingerprint
	seen := make(map[codec.Fingerprint]bool)
	for _, fp := range need {
		if supply[fp] > 0 {
			supply[fp]--
			continue
		}
		if !seen[fp] {
			seen[fp] = true
			missing = append(missing, fp)
		}
	}
	return missing
}

// orderByCoverage buckets states by how many of the missing fingerprints
// their creation path generates: full coverers first, partial next, the
// rest last; discovery order is preserved within each bucket. It also
// reports whether any state covers at least one missing fingerprint.
func orderByCoverage(states []*nodeState, missing []codec.Fingerprint) ([]*nodeState, bool) {
	if len(missing) == 0 {
		return states, true
	}
	var full, partial, zero []*nodeState
	any := false
	for _, s := range states {
		covered := 0
		for _, fp := range missing {
			if s.gen.contains(fp) {
				covered++
			}
		}
		switch {
		case covered == len(missing):
			full = append(full, s)
			any = true
		case covered > 0:
			partial = append(partial, s)
			any = true
		default:
			zero = append(zero, s)
		}
	}
	out := make([]*nodeState, 0, len(states))
	out = append(out, full...)
	out = append(out, partial...)
	out = append(out, zero...)
	return out, any
}

// tryWitness materializes one candidate combination, checks the invariant,
// and — on a preliminary violation — runs the path-enumeration soundness
// check against the shared sequence budget. It reports whether a confirmed
// bug was found.
func (c *checker) tryWitness(combo []*nodeState, pairA, pairB int, budget *int) bool {
	// The OPT half of the symmetry reduction: a combination whose canonical
	// twin was already invariant-clean is clean too (slot-symmetric
	// invariants) and can never become a witness — skip it without charging
	// the budget, so the reduced walk covers at least the combinations the
	// unreduced walk covers. Violating twins are never skipped: their
	// soundness verdicts are arrangement-specific.
	var canonFP codec.Fingerprint
	if c.canon != nil {
		var buf [16]codec.Fingerprint
		var fps []codec.Fingerprint
		if len(combo) <= len(buf) {
			fps = buf[:len(combo)]
		} else {
			fps = make([]codec.Fingerprint, len(combo))
		}
		for i, ns := range combo {
			fps[i] = ns.fp
		}
		canonFP = c.canon.Canonical(fps)
		if c.canonClean[canonFP] {
			c.res.Stats.SymmetrySkips++
			return false
		}
	}
	// Every examined combination charges the search budget, so the walk
	// terminates even when soundness verification (the other consumer of
	// the budget) is disabled or cached away.
	*budget--
	ss := c.comboSystem(combo)
	c.res.Stats.SystemStates++
	c.res.Stats.InvariantChecks++
	d := comboDepth(combo)
	if d > c.res.Stats.MaxDepth {
		c.res.Stats.MaxDepth = d
	}
	v := c.opt.Invariant.Check(ss)
	if v == nil {
		if c.canon != nil {
			c.canonClean[canonFP] = true
		}
		return false
	}
	c.res.Stats.PreliminaryViolations++
	if c.opt.DisableSoundness {
		return false
	}
	fp := comboFP(combo)
	if verdict, cached := c.verdicts[fp]; cached {
		return verdict && c.reported[fp]
	}
	t0 := time.Now()
	var tally soundTally
	sound, sched := c.witnessSequences(combo, pairA, pairB, budget, &tally)
	c.res.Stats.SoundnessTime += time.Since(t0)
	c.addTally(&tally)
	if sound && !c.opt.DisableReplay {
		sound = c.replayConfirms(sched, fp)
	}
	c.verdicts[fp] = sound
	if !sound {
		return false
	}
	c.reported[fp] = true
	c.res.Stats.ConfirmedBugs++
	c.res.Bugs = append(c.res.Bugs, Bug{
		Violation: v,
		Schedule:  sched,
		System:    ss.Clone(),
		Depth:     d,
	})
	if c.opt.StopAtFirstBug {
		c.stop(obs.StopFirstBug)
	}
	return true
}

// comboConflicts reports whether some pair of interesting members of the
// combination conflicts under the reduction.
func (c *checker) comboConflicts(combo []*nodeState) bool {
	for i := 0; i < len(combo); i++ {
		if !combo[i].interesting {
			continue
		}
		for j := i + 1; j < len(combo); j++ {
			if !combo[j].interesting {
				continue
			}
			if c.opt.Reduction.Conflict(combo[i].interest, combo[j].interest) {
				return true
			}
		}
	}
	return false
}

// prelim is one preliminary violation found during combination enumeration,
// tagged with its global enumeration index so confirmation runs in the
// canonical sequential order regardless of how the product was chunked.
type prelim struct {
	idx   int
	fp    codec.Fingerprint
	combo []*nodeState
	v     *spec.Violation
}

// forEachCombo enumerates the Cartesian product of lists in the canonical
// lexicographic order (last list fastest), materializes each combination
// into a reused scratch system state, and checks the invariant. When the
// product is large and Options.Workers allows, the widest dimension is
// chunked across the worker pool (§1: "the model checking process can be
// embarrassingly parallelized"); each chunk works on private scratch and
// private counters, and preliminary violations are replayed for
// confirmation in ascending enumeration index — so stats and reported bugs
// are identical for every worker count.
func (c *checker) forEachCombo(lists [][]*nodeState) {
	if c.stopped {
		return
	}
	total := 1
	for _, l := range lists {
		total *= len(l)
		if total == 0 {
			return
		}
	}

	// Strides of the mixed-radix enumeration index.
	strides := make([]int, len(lists))
	s := 1
	for d := len(lists) - 1; d >= 0; d-- {
		strides[d] = s
		s *= len(lists[d])
	}

	// Chunk the widest dimension for balance.
	widest := 0
	for d, l := range lists {
		if len(l) > len(lists[widest]) {
			widest = d
		}
	}
	nchunks := c.workers
	if nchunks > len(lists[widest]) {
		nchunks = len(lists[widest])
	}
	if nchunks < 2 || total < c.parThreshold {
		nchunks = 1
	}
	chunk := (len(lists[widest]) + nchunks - 1) / nchunks

	type chunkOut struct {
		systemStates int
		invChecks    int
		maxDepth     int
		symSkips     int
		prelims      []prelim
	}
	outs := make([]chunkOut, nchunks)
	var halt atomic.Bool

	runChunk := func(ci int) {
		lo := ci * chunk
		hi := lo + chunk
		if hi > len(lists[widest]) {
			hi = len(lists[widest])
		}
		if lo >= hi {
			return
		}
		out := &outs[ci]
		sub := make([][]*nodeState, len(lists))
		copy(sub, lists)
		sub[widest] = lists[widest][lo:hi]

		// Scratch reused across the whole chunk: the combination, its
		// materialized system state, and the enumeration position.
		combo := make([]*nodeState, len(lists))
		ss := make(model.SystemState, len(lists))
		pos := make([]int, len(lists))
		var symFPs []codec.Fingerprint
		if c.canon != nil {
			symFPs = make([]codec.Fingerprint, len(lists))
		}
		base := lo * strides[widest]
		tick := 0
		halted := false
		last := len(lists) - 1

		var rec func(d, depth int)
		rec = func(d, depth int) {
			if d == last {
				for i, st := range sub[d] {
					pos[d] = i
					combo[d] = st
					ss[d] = st.state
					leafDepth := depth + st.depth

					tick++
					if tick&1023 == 0 {
						// The system-state phase can dominate a run
						// (Figure 13), so the wall-clock budget must be
						// enforced here too, not only between handler
						// executions.
						if halt.Load() {
							halted = true
							return
						}
						if !c.deadline.IsZero() && time.Now().After(c.deadline) {
							halt.Store(true)
							halted = true
							return
						}
					}
					if c.opt.MaxSystemDepth > 0 && leafDepth > c.opt.MaxSystemDepth {
						continue
					}
					if c.canon != nil && c.symSkip(combo, symFPs) {
						// A non-canonical arrangement whose representative is
						// covered: its verdict is decided at the
						// representative's enumeration point (clean) or by
						// the fixpoint orbit sweep (violating).
						out.symSkips++
						continue
					}
					out.systemStates++
					out.invChecks++
					if leafDepth > out.maxDepth {
						out.maxDepth = leafDepth
					}
					if v := c.opt.Invariant.Check(ss); v != nil {
						// pos[widest] is relative to the chunk; base covers lo.
						gidx := base
						for dd := range pos {
							gidx += pos[dd] * strides[dd]
						}
						cp := make([]*nodeState, len(combo))
						copy(cp, combo)
						// The violation may retain the scratch system state
						// (spec.Violate stores it as-is); repoint it at a
						// stable copy before the scratch is reused.
						sys := make(model.SystemState, len(ss))
						copy(sys, ss)
						if len(v.System) == len(ss) && len(ss) > 0 && &v.System[0] == &ss[0] {
							v.System = sys
						}
						out.prelims = append(out.prelims, prelim{idx: gidx, combo: cp, v: v})
					}
				}
				return
			}
			for i, st := range sub[d] {
				pos[d] = i
				combo[d] = st
				ss[d] = st.state
				rec(d+1, depth+st.depth)
				if halted {
					return
				}
			}
		}
		rec(0, 0)
	}

	if nchunks == 1 {
		runChunk(0)
	} else {
		var wg sync.WaitGroup
		for ci := 0; ci < nchunks; ci++ {
			wg.Add(1)
			go func(ci int) {
				defer wg.Done()
				runChunk(ci)
			}(ci)
		}
		wg.Wait()
	}
	if halt.Load() && !c.deadline.IsZero() && time.Now().After(c.deadline) {
		c.stop(obs.StopBudget)
	}

	var all []prelim
	for i := range outs {
		c.res.Stats.SystemStates += outs[i].systemStates
		c.res.Stats.InvariantChecks += outs[i].invChecks
		c.res.Stats.SymmetrySkips += outs[i].symSkips
		if outs[i].maxDepth > c.res.Stats.MaxDepth {
			c.res.Stats.MaxDepth = outs[i].maxDepth
		}
		all = append(all, outs[i].prelims...)
	}
	c.res.Stats.PreliminaryViolations += len(all)
	if len(all) == 0 {
		return
	}
	sort.Slice(all, func(i, j int) bool { return all[i].idx < all[j].idx })
	if c.canon != nil {
		// Violating orbits feed the fixpoint sweep: skipped sibling
		// arrangements of a violating combination get their own checks there.
		for i := range all {
			c.recordOrbit(all[i].combo)
		}
	}
	// Confirmation is soundness work (path enumeration plus replay); label
	// it so profiles separate it from the combination sweep above.
	c.underPhase("soundness", func() { c.confirmBatch(all) })
}

// confirmResult is one precomputed soundness verdict.
type confirmResult struct {
	sound     bool
	sched     trace.Schedule
	soundTime time.Duration
	tally     soundTally
}

// confirmBatch confirms preliminary violations in canonical enumeration
// order (Figure 9 lines 19–21). The soundness runs themselves — path
// enumeration, sequence validation, and the final replay — are pure given
// the immutable exploration structures, so they are precomputed on the
// worker pool, one per distinct undecided fingerprint; the sequential merge
// then replays the exact bookkeeping of an inline confirmation loop:
// verdict and reported caches, stats, and the StopAtFirstBug cutoff, with
// stats charged only for the confirmations that actually execute.
func (c *checker) confirmBatch(prelims []prelim) {
	if c.opt.DisableSoundness {
		// Figure 13's "LMC-system-state" configuration: preliminary
		// violations are counted but never confirmed or reported.
		return
	}

	type job struct {
		fp    codec.Fingerprint
		combo []*nodeState
	}
	var jobs []job
	need := make(map[codec.Fingerprint]int)
	for i := range prelims {
		fp := comboFP(prelims[i].combo)
		prelims[i].fp = fp
		if c.reported[fp] {
			continue
		}
		if _, cached := c.verdicts[fp]; cached {
			continue
		}
		if _, dup := need[fp]; dup {
			continue
		}
		need[fp] = len(jobs)
		jobs = append(jobs, job{fp: fp, combo: prelims[i].combo})
	}

	results := make([]confirmResult, len(jobs))
	run := func(i int) {
		r := &results[i]
		budget := c.opt.MaxSequencesPerCheck
		t0 := time.Now()
		sound, sched := c.isStateSoundBudget(jobs[i].combo, &budget, &r.tally)
		r.soundTime = time.Since(t0)
		if sound && !c.opt.DisableReplay {
			sound = c.replayConfirms(sched, jobs[i].fp)
		}
		r.sound = sound
		r.sched = sched
	}
	if c.workers >= 2 && len(jobs) >= 2 {
		c.runParallel(len(jobs), run)
	} else {
		for i := range jobs {
			run(i)
		}
	}

	for i := range prelims {
		if c.stopped {
			return
		}
		p := &prelims[i]
		if c.reported[p.fp] {
			continue
		}
		if _, cached := c.verdicts[p.fp]; cached {
			// Sound verdicts are reported immediately when first computed,
			// so a cache hit of either polarity means nothing is left to do.
			continue
		}
		r := results[need[p.fp]]
		c.res.Stats.SoundnessCalls++
		c.res.Stats.SoundnessTime += r.soundTime
		c.addTally(&r.tally)
		c.verdicts[p.fp] = r.sound
		if !r.sound {
			continue
		}
		c.reported[p.fp] = true
		c.res.Stats.ConfirmedBugs++
		ss := c.comboSystem(p.combo)
		c.res.Bugs = append(c.res.Bugs, Bug{
			Violation: p.v,
			Schedule:  r.sched,
			System:    ss.Clone(),
			Depth:     comboDepth(p.combo),
		})
		if c.opt.StopAtFirstBug {
			c.stop(obs.StopFirstBug)
		}
	}
}

// comboSystem materializes the temporary system state for a combination.
func (c *checker) comboSystem(combo []*nodeState) model.SystemState {
	ss := make(model.SystemState, len(combo))
	for i, ns := range combo {
		ss[i] = ns.state
	}
	return ss
}

// comboDepth is the total depth of a combination: the sum of member path
// lengths, the depth axis of the paper's LMC plots.
func comboDepth(combo []*nodeState) int {
	d := 0
	for _, ns := range combo {
		d += ns.depth
	}
	return d
}
