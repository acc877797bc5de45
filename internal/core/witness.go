package core

import (
	"sort"

	"lmc/internal/codec"
	"lmc/internal/model"
	"lmc/internal/obs"
	"lmc/internal/spec"
)

// This file is the lazy witness search: system-state creation for LMC-OPT
// (§4.2) and the confirmation search for node-local invariant violations.
// Both range completion states over the nodes outside a violating pair with
// one walk (completionWalk) and hand every violating combination to the
// verdict path in confirm.go.

// visibleMembers is the prefix of an interest group visible under view.
// Members join in discovery order, so their seq numbers are ascending and
// the visible prefix is found by binary search.
func (c *checker) visibleMembers(g *interestGroup, n int, view []int) []*nodeState {
	lim := view[n]
	i := sort.Search(len(g.members), func(i int) bool { return g.members[i].seq >= lim })
	return g.members[:i]
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
				c.searchWitness(ns, k, "g:"+key, view)
				if c.stopped {
					return
				}
			}
			continue
		}
		c.searchWitness(ns, k, "all", view)
		if c.stopped {
			return
		}
	}
}

// resolveCandidates returns the conflicting candidate states of node k for
// a witness search, restricted to the search's view.
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
// The search runs on the incremental index layer (index.go): missing sets
// come from the pair's flow memos, coverage questions go to the producer
// index, and candidate pairs whose refutation evidence still stands are
// skipped outright. When the candidate list is large and a worker pool is
// available, the per-candidate missing sets are pre-resolved in parallel —
// pure functions of immutable memos — and committed in candidate order, so
// the sequential walk below consumes them with the exact sequential budget
// charges.
func (c *checker) searchWitness(ns *nodeState, k int, groupKey string, view []int) {
	cacheKey := witnessKey{fp: ns.fp, node: k, group: groupKey}
	if _, done := c.witnessed[cacheKey]; done {
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
	budget := maxSequencesPerCheck
	completionNodes := c.completionNodes(int(ns.node), k)
	// The completion frontier visible to this search: how many states of
	// each completion node the Cartesian walk below can range over. This is
	// both the walk's input size and the evidence recorded by a
	// completed-walk refutation.
	curLimits := make([]int, len(completionNodes))
	for i, n := range completionNodes {
		curLimits[i] = view[n]
	}

	combo := make([]*nodeState, len(c.spaces))
	combo[ns.node] = ns
	deadlineTick := 0
	leaf := func() bool { return c.witnessLeaf(combo, &budget) }

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
		oc := c.pairOutcomes[key]

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
				ordered = orderByCoverage(c.viewStates(n, view), missing)
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

		if c.completionWalk(combo, completionNodes, lists, &budget, &deadlineTick, leaf) {
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
// which missing messages its creation path can supply. There is no invariant
// to evaluate at the leaf — every completion is a candidate witness — so with
// confirmation off there is nothing to search.
func (c *checker) confirmLocalViolation(ns *nodeState, v *spec.Violation, view []int) {
	cacheKey := witnessKey{fp: ns.fp, node: int(ns.node), group: "local:" + v.Invariant}
	if _, done := c.witnessed[cacheKey]; done || !c.confirms() {
		return
	}
	c.witnessed[cacheKey] = struct{}{}
	// The whole search (including the path enumeration and replay it
	// triggers) profiles under the soundness phase label, and counts as one
	// soundness-verification invocation.
	c.underPhase("soundness", func() {
		c.res.Stats.SoundnessCalls++
		budget := maxSequencesPerCheck
		completionNodes := c.completionNodes(int(ns.node), int(ns.node))
		missing := c.missingFromFlows(flowOf(ns), nil)
		lists := make([][]*nodeState, len(completionNodes))
		for i, n := range completionNodes {
			lists[i] = orderByCoverage(c.viewStates(n, view), missing)
		}
		combo := make([]*nodeState, len(c.spaces))
		combo[ns.node] = ns
		deadlineTick := 0
		c.completionWalk(combo, completionNodes, lists, &budget, &deadlineTick,
			func() bool { return c.settle(combo, v, nil, &budget) })
	})
}

// completionNodes lists the nodes other than the pair (a, b) in ascending
// order: the slots a witness search fills with completions.
func (c *checker) completionNodes(a, b int) []int {
	nodes := make([]int, 0, len(c.spaces)-1)
	for n := range c.spaces {
		if n != a && n != b {
			nodes = append(nodes, n)
		}
	}
	return nodes
}

// completionWalk is the lazy Cartesian walk every witness search runs: slot
// nodes[i] of combo ranges over lists[i] in list order (last list fastest),
// and leaf is called on each full combination until it reports a confirmed
// witness, the sequence budget is spent or a stop criterion fires. It
// reports whether a witness was found.
func (c *checker) completionWalk(combo []*nodeState, nodes []int, lists [][]*nodeState,
	budget, deadlineTick *int, leaf func() bool) bool {

	var walk func(i int) bool
	walk = func(i int) bool {
		if c.stopped || *budget <= 0 {
			return false
		}
		if i == len(lists) {
			if c.pollDeadline(deadlineTick) {
				c.stop(obs.StopBudget)
				return false
			}
			return leaf()
		}
		for _, s := range lists[i] {
			combo[nodes[i]] = s
			if walk(i + 1) {
				return true
			}
			if c.stopped || *budget <= 0 {
				return false
			}
		}
		return false
	}
	return walk(0)
}

// witnessLeaf materializes one candidate combination of an OPT witness
// search and checks the invariant; a preliminary violation goes to the
// verdict path against the search's shared sequence budget. It reports
// whether a confirmed bug was found.
func (c *checker) witnessLeaf(combo []*nodeState, budget *int) bool {
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
	return c.settle(combo, v, nil, budget)
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
// rest last; discovery order is preserved within each bucket.
func orderByCoverage(states []*nodeState, missing []codec.Fingerprint) []*nodeState {
	if len(missing) == 0 {
		return states
	}
	var full, partial, zero []*nodeState
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
		case covered > 0:
			partial = append(partial, s)
		default:
			zero = append(zero, s)
		}
	}
	out := make([]*nodeState, 0, len(states))
	out = append(out, full...)
	out = append(out, partial...)
	out = append(out, zero...)
	return out
}
