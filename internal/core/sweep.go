package core

import (
	"sort"
	"sync/atomic"
	"time"

	"lmc/internal/codec"
	"lmc/internal/model"
	"lmc/internal/obs"
)

// This file is system-state creation for LMC-GEN (Figure 9,
// checkSystemInvariant): the start-state check and the Cartesian sweep
// anchored at each newly visited node state. What it finds goes to the
// verdict path in confirm.go.

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
	if c.opt.Invariant == nil || c.log.owners > 1 {
		// On a worker replica the start-state check is coordinator work (it
		// is not anchored at a discovery, so it has no report slot).
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
		// The start state is the live state of a real run: the empty
		// schedule realizes it, so there is nothing to search or replay.
		c.settle(combo, v, &confirmResult{sound: true}, nil)
	}
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

// checkNewState is Procedure checkSystemInvariant of Figure 9: after node
// state ns is newly visited, materialize every system state that combines
// ns with already-visited states of the other nodes, and evaluate the
// invariant on each. Combinations of previously visited states were checked
// in earlier rounds, so fixing ns avoids revisiting system states (§4.2,
// "System states"). The other nodes' lists are taken at the discovery's
// virtual-time view, so a deferred (round-barrier) check sees exactly the
// states an inline sequential check would have seen.
func (c *checker) checkNewState(ns *nodeState, view []int) {
	if c.opt.Invariant == nil {
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
	if nchunks < 2 || total < parallelThreshold {
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
						out.prelims = append(out.prelims, newPrelim(gidx, combo, ss, v))
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

	c.runParallel(nchunks, runChunk)
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
	// Violating orbits feed the fixpoint sweep: skipped sibling arrangements
	// of a violating combination get their own checks there.
	for i := range all {
		c.recordOrbit(all[i].combo)
	}
	c.confirmBatch(all)
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
