package core

import (
	"encoding/binary"
	"math/bits"
	"sort"

	"lmc/internal/codec"
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
// participate, and a combination is materialized only when at least one
// pair of interests conflicts.
//
// Interesting states are grouped by interest key and conflicts are decided
// once per key pair (keyTable) — the shape of the paper's Paxos mapping ("we
// map the node states to the values that are chosen in them") — so the
// non-conflicting case costs a handful of table reads instead of a scan of
// the whole Cartesian product. Groups with no member visible at the
// discovery's virtual time did not exist yet from the sequential algorithm's
// point of view and are skipped without leaving any witnessed mark.
func (c *checker) checkNewStateOpt(ns *nodeState, view []int) {
	if ns.key == 0 {
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
		for _, g := range sp.groupOrder {
			cands := c.visibleMembers(g, k, view)
			if len(cands) == 0 || !c.keys.conflicts(ns.key, g.key) {
				continue
			}
			c.searchWitness(ns, k, g, len(cands), view)
			if c.stopped {
				return
			}
		}
	}
}

// witnessScratch is the working memory of a witness search. Searches run one
// at a time, on the merge goroutine, so it lives on the checker (like sw)
// and every search reuses it: a warm search allocates only the completion
// orderings it has to build, however many candidates it examines. Nothing in
// it outlives the search that filled it; miss and missing do not even
// outlive the candidate they were computed for.
type witnessScratch struct {
	// budget is the search's sequence allowance, shared by its candidates,
	// walks and confirmations; tick is its deadline-poll cadence.
	budget, tick int
	nodes        []int          // the completion nodes: every node outside the pair, ascending
	combo        []*nodeState   // the combination under construction
	lists        [][]*nodeState // per completion node: its visible states, in walk order
	// miss is the current pair's missing set (msgIDs.missing); missing lists
	// its fingerprints, for a pair that survives the coverage check.
	miss    idSet
	missing []codec.Fingerprint
	// known and coverable are what the search has learned from the producer
	// index: the ids it has asked about, and those of them the completion
	// nodes can supply under the search's view. The answer to that question
	// depends on nothing that changes during a search, so each id is asked
	// about once.
	known, coverable idSet
	// rows is columnRows' scratch: by bit of the id word at hand, the
	// candidates that miss the id.
	rows [64]uint64
	// orders holds the completion orderings this search has built, per
	// completion node, by the exact missing set (miss's words as bytes, in
	// key): candidates that miss the same messages share a scan.
	orders map[string][][]*nodeState
	key    []byte
	// sound is the scratch of the confirmations the search runs at its leaves.
	sound soundScratch
}

// beginSearch resets the scratch for a search whose pair sits on nodes
// ns.node and k (the same node for a node-local violation).
func (c *checker) beginSearch(ns *nodeState, k int) *witnessScratch {
	w := &c.wit
	w.budget, w.tick = maxSequencesPerCheck, 0
	w.nodes = w.nodes[:0]
	for n := range c.spaces {
		if n != int(ns.node) && n != k {
			w.nodes = append(w.nodes, n)
		}
	}
	w.lists = grow(w.lists, len(w.nodes))
	w.combo = grow(w.combo, len(c.spaces))
	w.combo[ns.node] = ns
	w.known, w.coverable = w.known[:0], w.coverable[:0]
	if w.orders == nil {
		w.orders = make(map[string][][]*nodeState)
	}
	clear(w.orders)
	return w
}

// coverage reports whether the completion nodes can supply every message
// of the current pair's missing set. Each missing message charges one
// cover-index hit or miss, also past the first message nobody covers and
// also when the search asked the producer index about it before: the
// counters count the search's coverage questions, not how they were
// answered, and stay what a probe per question would make them.
func (c *checker) coverage(w *witnessScratch, view []int) bool {
	hits, misses := 0, 0
	for i, m := range w.miss {
		for ; m != 0; m &= m - 1 {
			if c.coverable(w, int32(i<<6+bits.TrailingZeros64(m)), view) {
				hits++
			} else {
				misses++
			}
		}
	}
	c.res.Stats.CoverIndexHits += hits
	c.res.Stats.CoverIndexMisses += misses
	return misses == 0
}

// coverable reports whether the completion nodes can supply message id x
// under the view, asking the producer index the first time the search meets
// x.
func (c *checker) coverable(w *witnessScratch, x int32, view []int) bool {
	if !w.known.has(x) {
		if c.coveredByAny(w.nodes, c.msgs.fps[x], view) {
			w.coverable.add(x)
		}
		w.known.add(x)
	}
	return w.coverable.has(x)
}

// completionOrders sets w.lists to the completion nodes' visible states
// ordered by coverage of the current pair's missing set, building them —
// and charging the budget for the scans — the first time the search meets
// that set.
func (c *checker) completionOrders(w *witnessScratch, view []int) {
	w.key = w.key[:0]
	for _, x := range w.miss {
		w.key = binary.LittleEndian.AppendUint64(w.key, x)
	}
	orders, ok := w.orders[string(w.key)]
	if !ok {
		w.missing = c.msgs.fingerprints(w.missing, w.miss)
		orders = make([][]*nodeState, len(w.nodes))
		for i, n := range w.nodes {
			orders[i] = orderByCoverage(c.spaces[n], c.viewStates(n, view), w.missing)
			// A coverage scan touches every visited state of the node;
			// short lists still cost at least one unit.
			w.budget -= max(len(orders[i])/64, 1)
		}
		w.orders[string(w.key)] = orders
	}
	copy(w.lists, orders)
}

// searchWitness looks for a real run in which ns coexists with one of the
// conflicting candidate states of node k: the first n members of group g,
// those visible under the view. Other nodes are completed with any
// visited state (within the search's view), iterated lazily in discovery
// order — their events are what generated the messages the pair consumed.
// Each candidate system state is materialized and invariant-checked; a
// violating one goes through soundness verification; the first confirmed
// witness is reported and ends the search. The whole search counts as one
// soundness-verification invocation, with the sequence budget shared across
// candidates.
//
// The search runs on the index layer (index.go): missing sets come from the
// flow memos, most of them read 64 candidates at a time off the group's
// member columns, and coverage questions go to the producer index, once per
// message.
func (c *checker) searchWitness(ns *nodeState, k int, g *interestGroup, n int, view []int) {
	cacheKey := witnessKey{fp: ns.fp, node: k, key: g.key}
	if _, done := c.witnessed[cacheKey]; done {
		return
	}
	c.witnessed[cacheKey] = struct{}{}
	c.underPhase("soundness", func() { c.witnessSearch(ns, k, g, n, view) })
}

// witnessSearch is the body of searchWitness, separated so the whole search
// (including the path enumeration and replay it triggers) profiles under
// the soundness phase label.
func (c *checker) witnessSearch(ns *nodeState, k int, g *interestGroup, n int, view []int) {
	c.res.Stats.SoundnessCalls++
	w := c.beginSearch(ns, k)
	c.examineGroup(w, c.msgs.flowOf(c.spaces[ns.node], ns), k, g, n, view,
		func() bool { return c.pursue(w, view) })
}

// examineGroup runs the candidate loop of a search whose anchor has flow
// memo flow over the first n members of g, handing each feasible candidate
// to pursue. Candidates are examined in member order, each one charging a
// unit of budget, a deadline tick and a cover-index hit or miss per missing
// message, until pursue ends the search or the budget, the deadline or the
// run stops it. The member columns (columnSearch) do exactly that for an
// anchor whose memo has no wide entries in a pass that seeds no message
// twice — every registry workload's — and the per-pair loop (pairSearch)
// does it for the rest.
func (c *checker) examineGroup(w *witnessScratch, flow *flowMemo, k int, g *interestGroup, n int, view []int, pursue func() bool) {
	if len(flow.wide) > 0 || c.msgs.twice {
		c.pairSearch(w, flow, k, g.members[:n], view, pursue)
		return
	}
	c.columnSearch(w, flow, k, g, n, view, pursue)
}

// pairSearch examines the candidates one pair at a time.
func (c *checker) pairSearch(w *witnessScratch, flow *flowMemo, k int, cands []*nodeState, view []int, pursue func() bool) {
	for _, b := range cands {
		if c.stopped || w.budget <= 0 || c.examine(w, flow, k, b, view, pursue) {
			return
		}
	}
}

// examine is the per-pair path for candidate b of node k, the other member
// of the pair whose anchor has flow memo flow. It reports whether the search
// ends.
func (c *checker) examine(w *witnessScratch, flow *flowMemo, k int, b *nodeState, view []int, pursue func() bool) bool {
	// Examining a candidate costs budget even when the feasibility
	// check refutes it without materializing anything — conflicting
	// groups can hold thousands of members, and the walk must stay
	// within the per-search allowance. Ordering a node's completions by
	// coverage scans that node's whole visited list, so it is charged
	// proportionally (completionOrders).
	w.budget--
	if c.pollDeadline(&w.tick) {
		c.stop(obs.StopBudget)
		return true
	}
	w.combo[k] = b

	// What must the completion nodes supply? Every message the pair's
	// creation chains consume beyond what the pair itself (or the seeded
	// network) generates. Candidates that cannot cover a missing
	// message are tried last; a message nobody can cover refutes this
	// pair outright (modulo alternate-path generation, the same kind of
	// incompleteness the paper's caps accept).
	w.miss = c.msgs.missing(w.miss, flow, c.msgs.flowOf(c.spaces[k], b))

	// Feasibility: the cover-index counters count a pair's whole missing
	// set, also past the first message nobody covers.
	return c.coverage(w, view) && pursue()
}

// pursue takes the feasible pair in w.combo, its missing set in w.miss, past
// the coverage check: completion orders, then the walk. It reports whether
// the search ends.
func (c *checker) pursue(w *witnessScratch, view []int) bool {
	c.completionOrders(w, view)
	if w.budget <= 0 {
		return true
	}
	return c.completionWalk(0, c.witnessLeaf) || c.stopped
}

// columnSearch is the candidate loop on g's member columns. A member no
// search has examined yet this pass takes the per-pair path, which builds
// its memo, and then enters the columns; entered members are examined a
// chunk at a time (refuteChunk).
func (c *checker) columnSearch(w *witnessScratch, flow *flowMemo, k int, g *interestGroup, n int, view []int, pursue func() bool) {
	mc := &g.cols
	for i := 0; i < n && !c.stopped && w.budget > 0; {
		if i < mc.filled {
			var end bool
			if i, end = c.refuteChunk(w, flow, k, g, i, min(n, mc.filled), view, pursue); end {
				return
			}
			continue
		}
		b := g.members[i]
		end := c.examine(w, flow, k, b, view, pursue)
		// A deadline stop comes before the memo is read: enter b only
		// if it has one, so the columns build no memo the loop did not.
		if b.seq == 0 || b.flow != nil {
			mc.enter(c.msgs.flowOf(c.spaces[k], b))
		}
		if end {
			return
		}
		i++
	}
}

// refuteChunk examines entered candidates from member i on, below lim and
// within i's block, as the per-pair loop would: the chunk ends where the
// budget runs out and at the next candidate whose tick reads the clock. The
// chunk's rows say which candidates miss a message nobody supplies; the
// refuted ones before the first candidate that is not refuted — feasible,
// or with wide entries — are charged from the rows, and that candidate
// takes the per-pair path. It returns where the next chunk starts and
// whether the search ends.
func (c *checker) refuteChunk(w *witnessScratch, flow *flowMemo, k int, g *interestGroup, i, lim int, view []int, pursue func() bool) (int, bool) {
	j := i >> 6
	e := min(lim, (j+1)<<6, i+w.budget, i+deadlinePollInterval-w.tick%deadlinePollInterval)
	blk := &g.cols.blocks[j]
	span := spanMask(i-j<<6, e-j<<6)
	mask := span &^ blk.wide
	refuted, hits, misses := c.columnRows(w, flow, blk, mask, view)
	p := e
	if rest := span &^ refuted; rest != 0 {
		p = j<<6 + bits.TrailingZeros64(rest)
	}
	if m := p - i; m > 0 {
		seg := spanMask(i-j<<6, p-j<<6)
		w.budget -= m
		w.tick += m
		// Only the chunk's last candidate can read the clock; a stop there
		// comes before its missing set is charged.
		stop := w.tick%deadlinePollInterval == 0 && c.pastDeadline()
		if stop {
			seg &^= 1 << ((p - 1) & 63)
		}
		if seg != mask {
			_, hits, misses = c.columnRows(w, flow, blk, seg, view)
		}
		c.res.Stats.CoverIndexHits += hits
		c.res.Stats.CoverIndexMisses += misses
		if stop {
			c.stop(obs.StopBudget)
			return p, true
		}
	}
	if p == e {
		return e, false
	}
	return p + 1, c.examine(w, flow, k, g.members[p], view, pursue)
}

// columnRows reads block blk's rows for the anchor with flow memo flow (the
// selection is memberColumns'), restricted to the candidates in mask: it
// returns the candidates that miss a message nobody supplies, and the
// cover-index hits and misses the candidates' missing sets charge. The
// producer index is asked only about ids some candidate in mask misses: the
// ids the per-pair loop asks about.
func (c *checker) columnRows(w *witnessScratch, flow *flowMemo, blk *memberBlock, mask uint64, view []int) (refuted uint64, hits, misses int) {
	if mask == 0 {
		return 0, 0, 0
	}
	cols := len(blk.pos) >> 6
	for wi := range max(cols, len(flow.pos)) {
		pa, na, i1 := flow.pos.word(wi), flow.neg.word(wi), c.msgs.init1.word(wi)
		// Ids the anchor needs and nobody seeded are missed by every
		// candidate without surplus; ids the anchor needs and the network
		// seeded once, and ids the anchor neither needs nor produces and
		// nobody seeded, by every candidate that needs them.
		needed, byPos := pa&^i1, uint64(0)
		if wi < cols {
			byPos = (pa&i1 | ^(pa | na | i1)) & blk.posAny[wi]
		}
		rows, held := &w.rows, uint64(0)
		for s := needed; s != 0; s &= s - 1 {
			b := bits.TrailingZeros64(s)
			rows[b] = mask
			if wi < cols {
				rows[b] &^= blk.neg[wi<<6+b]
			}
			if rows[b] != 0 {
				held |= 1 << b
			}
		}
		for s := byPos; s != 0; s &= s - 1 {
			b := bits.TrailingZeros64(s)
			if rows[b] = blk.pos[wi<<6+b] & mask; rows[b] != 0 {
				held |= 1 << b
			}
		}
		cov := c.coverableWord(w, wi, held, view)
		for s := held; s != 0; s &= s - 1 {
			b := bits.TrailingZeros64(s)
			n := bits.OnesCount64(rows[b])
			if cov&(1<<b) != 0 {
				hits += n
			} else {
				misses += n
				refuted |= rows[b]
			}
		}
	}
	return refuted, hits, misses
}

// coverableWord is coverable for the ids of word wi in ids at once: the
// ones the completion nodes can supply.
func (c *checker) coverableWord(w *witnessScratch, wi int, ids uint64, view []int) uint64 {
	for ask := ids &^ w.known.word(wi); ask != 0; ask &= ask - 1 {
		c.coverable(w, int32(wi<<6+bits.TrailingZeros64(ask)), view)
	}
	return ids & w.coverable.word(wi)
}

// spanMask is the word with bits [lo, hi) set, 0 ≤ lo < hi ≤ 64.
func spanMask(lo, hi int) uint64 {
	return ^uint64(0) >> (64 - (hi - lo)) << lo
}

// confirmLocalViolation runs the witness search for a node-local invariant
// violation: the violating state alone is the "pair"; every other node is a
// completion ranged over lazily (within the discovery's view), ordered by
// which missing messages its creation path can supply. There is no invariant
// to evaluate at the leaf — every completion is a candidate witness — so with
// confirmation off there is nothing to search. li is the local invariant's
// index in Options.LocalInvariants.
func (c *checker) confirmLocalViolation(ns *nodeState, v *spec.Violation, li int, view []int) {
	cacheKey := witnessKey{fp: ns.fp, node: int(ns.node), key: -1 - int32(li)}
	if _, done := c.witnessed[cacheKey]; done || !c.confirms() {
		return
	}
	c.witnessed[cacheKey] = struct{}{}
	// The whole search (including the path enumeration and replay it
	// triggers) profiles under the soundness phase label, and counts as one
	// soundness-verification invocation.
	c.underPhase("soundness", func() {
		c.res.Stats.SoundnessCalls++
		w := c.beginSearch(ns, int(ns.node))
		w.miss = c.msgs.missing(w.miss, c.msgs.flowOf(c.spaces[ns.node], ns), &noFlow)
		w.missing = c.msgs.fingerprints(w.missing, w.miss)
		for i, n := range w.nodes {
			w.lists[i] = orderByCoverage(c.spaces[n], c.viewStates(n, view), w.missing)
		}
		c.completionWalk(0, func() bool { return c.settle(w.combo, v, nil, &w.budget) })
	})
}

// completionWalk is the lazy Cartesian walk every witness search runs over
// its scratch: slot nodes[j] of combo ranges over lists[j] in list order
// (last list fastest) for every j ≥ i, and leaf is called on each full
// combination until it reports a confirmed witness, the sequence budget is
// spent or a stop criterion fires. It reports whether a witness was found.
func (c *checker) completionWalk(i int, leaf func() bool) bool {
	w := &c.wit
	if c.stopped || w.budget <= 0 {
		return false
	}
	if i == len(w.lists) {
		if c.pollDeadline(&w.tick) {
			c.stop(obs.StopBudget)
			return false
		}
		return leaf()
	}
	for _, s := range w.lists[i] {
		w.combo[w.nodes[i]] = s
		if c.completionWalk(i+1, leaf) {
			return true
		}
		if c.stopped || w.budget <= 0 {
			return false
		}
	}
	return false
}

// witnessLeaf materializes the combination an OPT witness search has just
// completed and checks the invariant; a preliminary violation goes to the
// verdict path against the search's shared sequence budget. It reports
// whether a confirmed bug was found.
func (c *checker) witnessLeaf() bool {
	combo, budget := c.wit.combo, &c.wit.budget
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
		return false
	}
	c.res.Stats.PreliminaryViolations++
	return c.settle(combo, v, nil, budget)
}

// orderByCoverage buckets states, a prefix of sp's, by how many of the
// missing fingerprints their creation chain generates: full coverers first,
// partial next, the rest last; discovery order is preserved within each
// bucket.
func orderByCoverage(sp *space, states []*nodeState, missing []codec.Fingerprint) []*nodeState {
	if len(missing) == 0 {
		return states
	}
	var full, partial, zero []*nodeState
	for _, s := range states {
		covered := 0
		for _, fp := range missing {
			if sp.creationEmits(s, fp) {
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
