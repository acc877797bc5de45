package core

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"lmc/internal/codec"
	"lmc/internal/model"
	"lmc/internal/trace"
)

// Reductions selects the optional state-space reductions of the fingerprint
// layer. Both default off; a reduced run must find every violation the
// unreduced run finds (the diffcheck corpus gates this end to end), it just
// spends fewer system-state materializations and sequence validations doing
// so.
type Reductions struct {
	// Symmetry enables role-symmetry reduction: when the machine declares
	// interchangeable node classes (model.Symmetric), the checker skips
	// system-state combinations that are non-canonical permutations of an
	// already-covered arrangement (GEN), and witness walks skip combinations
	// whose canonical twin was already invariant-clean (OPT). Machines
	// without the capability run unreduced.
	Symmetry bool
	// PartialOrder enables partial-order reduction inside soundness
	// verification: per-node paths with identical message flow are
	// deduplicated, and combination members whose generated messages feed no
	// other member are factored out of the interleaving odometer and
	// validated independently (delivery interleavings of provably commuting
	// messages are never enumerated).
	PartialOrder bool
}

// String renders the enabled reductions in the -reduce flag syntax.
func (r Reductions) String() string {
	switch {
	case r.Symmetry && r.PartialOrder:
		return "sym,por"
	case r.Symmetry:
		return "sym"
	case r.PartialOrder:
		return "por"
	default:
		return "none"
	}
}

// ParseReductions parses a -reduce flag value: a comma-separated subset of
// "sym" and "por" ("all" enables both; "", "none" and "off" disable both).
func ParseReductions(s string) (Reductions, error) {
	var r Reductions
	s = strings.TrimSpace(s)
	if s == "" || s == "none" || s == "off" {
		return r, nil
	}
	for _, part := range strings.Split(s, ",") {
		switch strings.TrimSpace(part) {
		case "sym", "symmetry":
			r.Symmetry = true
		case "por", "partial-order":
			r.PartialOrder = true
		case "all":
			r.Symmetry, r.PartialOrder = true, true
		case "":
		default:
			return Reductions{}, fmt.Errorf("core: unknown reduction %q (want sym, por, all, or none)", part)
		}
	}
	return r, nil
}

// buildCanonicalizer resolves a machine's symmetry declaration into a
// codec.Canonicalizer. A malformed declaration (out-of-range, duplicated or
// overlapping indexes) and a declaration with no non-trivial class both
// yield nil — the run proceeds unreduced, which is always sound.
func buildCanonicalizer(numNodes int, decl [][]model.NodeID) *codec.Canonicalizer {
	classes := make([][]int, 0, len(decl))
	for _, cl := range decl {
		ints := make([]int, len(cl))
		for i, n := range cl {
			ints[i] = int(n)
		}
		classes = append(classes, ints)
	}
	canon, err := codec.NewCanonicalizer(numNodes, classes)
	if err != nil || canon.NumClasses() == 0 {
		return nil
	}
	return canon
}

// universal reports whether ns, a visited state of slot d of class cl, has a
// twin — a visited state of the same fingerprint and the same depth — in
// every other slot of the class. Spaces only grow and a fingerprint keeps its
// first state, so a positive answer stands for the rest of the pass and is
// cached on the state; forEachCombo asks on the merge goroutine only.
func (c *checker) universal(ns *nodeState, d int, cl []int) bool {
	if ns.universal {
		return true
	}
	for _, j := range cl {
		if j == d {
			continue
		}
		if twin := c.spaces[j].byFP[ns.fp]; twin == nil || twin.depth != ns.depth {
			return false
		}
	}
	ns.universal = true
	return true
}

// symProducts splits the depth-ordered product of a sweep (sw.all) into the
// products of the symmetry sweep, which together hold every combination
// exactly once:
//
//   - pass A: every class member universal. Any arrangement of universal
//     members has a representative that is realizable (each member has a twin
//     in whichever slot the sort moves it to) at the same total depth, which
//     are conditions 2 and 3 of symSkip — so it is skipped exactly when it is
//     not canonical, and walk forms only the canonical ones: a class slot
//     after its class's first is in fingerprint order and entered at the
//     lower bound of the previous class slot's choice. No per-leaf test runs.
//   - pass B: some class member not universal — its twin does not exist yet,
//     or was first reached at another depth. One product per first such slot
//     (in class order): class slots before it universal only, that slot
//     non-universal only, every later slot whole; symSkip decides each leaf.
func (c *checker) symProducts() {
	s := &c.sw
	n := len(s.all)
	s.dims = grow(s.dims, (n+2)*n)
	k := 0
	clone := func(src [][]cand) [][]cand {
		out := s.dims[k*n : (k+1)*n : (k+1)*n]
		k++
		copy(out, src)
		return out
	}
	passA, earlier := clone(s.all), clone(s.all)
	s.prev = grow(s.prev, n)
	for d := range s.prev {
		s.prev[d] = -1
	}
	for _, cl := range c.canon.Classes() {
		for i, d := range cl {
			uni, non := s.carve(len(s.all[d])), s.carve(len(s.all[d]))
			for _, cd := range s.all[d] {
				if c.universal(cd.ns, d, cl) {
					uni = append(uni, cd)
				} else {
					non = append(non, cd)
				}
			}
			if len(non) > 0 {
				passB := clone(earlier)
				passB[d] = non
				s.prods = append(s.prods, product{dims: passB, filter: true})
			}
			earlier[d], passA[d] = uni, uni
			if i > 0 {
				s.prev[d] = cl[i-1]
				passA[d] = append(s.carve(len(uni)), uni...)
				slices.SortFunc(passA[d], func(a, b cand) int { return cmp.Compare(a.ns.fp, b.ns.fp) })
			}
		}
	}
	s.prods = append(s.prods, product{dims: passA, canonical: true})
}

// symSkip is the GEN-side symmetry predicate on one combination (scratch is
// a per-chunk buffer of len(combo) fingerprints). A combination is skipped
// iff
//
//  1. it is a non-canonical arrangement of its orbit (some class segment out
//     of order), and
//  2. its canonical representative is realizable right now — every slot of
//     the representative arrangement resolves to a visited state of that
//     node — and
//  3. when MaxSystemDepth caps materialization, the representative passes
//     the same depth filter the skipped arrangement already passed.
//
// The sweep evaluates it per leaf only where it must (pass B of
// symProducts); pass A generates exactly the combinations it would keep.
//
// Soundness: the representative, being canonical, is never skipped, and the
// enumeration scheme visits every combination of visited states exactly once
// (at the discovery of its last member), so a representative whose members
// all exist has been or will be enumerated. If the representative is
// invariant-clean, the skipped arrangement is clean too (model.Symmetric
// demands slot-symmetric invariants); if it violates, the recorded orbit is
// re-expanded by sweepOrbits at the exploration fixpoint and the skipped
// arrangement gets its own invariant check and soundness verification there.
// The predicate reads only state that is frozen while a sweep runs (spaces
// change on the merge goroutine, between sweeps), so chunk workers evaluate
// it concurrently and every chunking produces the same skips.
func (c *checker) symSkip(combo []*nodeState, scratch []codec.Fingerprint) bool {
	for i, ns := range combo {
		scratch[i] = ns.fp
	}
	if c.canon.IsCanonical(scratch) {
		return false
	}
	c.canon.Canonicalize(scratch)
	repDepth := 0
	for i, fp := range scratch {
		if fp == combo[i].fp {
			repDepth += combo[i].depth
			continue
		}
		rep := c.spaces[i].byFP[fp]
		if rep == nil {
			return false
		}
		repDepth += rep.depth
	}
	return c.opt.MaxSystemDepth <= 0 || repDepth <= c.opt.MaxSystemDepth
}

// orbitRec is one violating system-state arrangement recorded for the
// fixpoint orbit sweep. The fingerprints (not the nodeState pointers) are
// stored: the sweep re-resolves members against the final spaces.
type orbitRec struct {
	fps []codec.Fingerprint
}

// recordOrbit notes a preliminarily violating combination so sweepOrbits can
// check its permuted siblings at the fixpoint. Orbits are deduplicated by
// canonical fingerprint; orbits whose class segments hold equal fingerprints
// have no sibling arrangements and are dropped.
func (c *checker) recordOrbit(combo []*nodeState) {
	if c.canon == nil {
		return
	}
	fps := make([]codec.Fingerprint, len(combo))
	for i, ns := range combo {
		fps[i] = ns.fp
	}
	cfp := c.canon.Canonical(fps)
	if _, dup := c.orbitSeen[cfp]; dup {
		return
	}
	c.orbitSeen[cfp] = struct{}{}
	if !c.orbitNontrivial(fps) {
		return
	}
	c.orbits = append(c.orbits, orbitRec{fps: fps})
}

// orbitNontrivial reports whether some class holds at least two distinct
// member fingerprints, i.e. the orbit has more than one arrangement.
func (c *checker) orbitNontrivial(fps []codec.Fingerprint) bool {
	for _, cl := range c.canon.Classes() {
		for i := 1; i < len(cl); i++ {
			if fps[cl[i]] != fps[cl[0]] {
				return true
			}
		}
	}
	return false
}

// sweepOrbits runs at the exploration fixpoint: every arrangement of every
// recorded violating orbit that resolves against the final visited spaces is
// invariant-checked and, on violation, confirmed through the same batch
// machinery the enumeration uses. This is the completion half of the
// symmetry skip — arrangements skipped during enumeration because their
// (violating) representative was covered get their individual soundness
// verdicts here, so a reduced run reports every arrangement-specific bug the
// unreduced run reports.
func (c *checker) sweepOrbits() {
	// No orbit is recorded unless an invariant found a violation, so
	// c.opt.Invariant is set whenever there is one to sweep.
	if c.canon == nil || len(c.orbits) == 0 || c.stopped {
		return
	}
	n := len(c.spaces)
	arr := make([]codec.Fingerprint, n)
	combo := make([]*nodeState, n)
	ss := make(model.SystemState, n)
	seen := make(map[codec.Fingerprint]bool)
	var prelims []prelim
	c.underPhase("sysstate", func() {
		for _, od := range c.orbits {
			if c.stopped {
				return
			}
			c.forEachArrangement(od.fps, arr, func() {
				// The recorded arrangement itself was checked when it was
				// enumerated.
				same := true
				for i := range arr {
					if arr[i] != od.fps[i] {
						same = false
						break
					}
				}
				if same {
					return
				}
				fp := codec.Combine(arr...)
				if seen[fp] {
					return
				}
				seen[fp] = true
				depth := 0
				for i := range arr {
					ns := c.spaces[i].byFP[arr[i]]
					if ns == nil {
						// Arrangement not realizable: some member fingerprint
						// was never visited by that node. The unreduced run
						// never materializes it either.
						return
					}
					combo[i] = ns
					depth += ns.depth
				}
				if c.opt.MaxSystemDepth > 0 && depth > c.opt.MaxSystemDepth {
					return
				}
				for i, ns := range combo {
					ss[i] = ns.state
				}
				c.res.Stats.SystemStates++
				c.res.Stats.InvariantChecks++
				c.res.Stats.OrbitChecks++
				if depth > c.res.Stats.MaxDepth {
					c.res.Stats.MaxDepth = depth
				}
				if v := c.opt.Invariant.Check(ss); v != nil {
					prelims = append(prelims, newPrelim(len(prelims), combo, ss, v))
				}
			})
		}
	})
	c.res.Stats.PreliminaryViolations += len(prelims)
	c.confirmBatch(prelims)
}

// forEachArrangement enumerates every arrangement of the orbit of base:
// the product, over all classes, of the permutations of the class's member
// values (fixed slots keep their value). arr is the scratch the callback
// reads; it holds base outside class slots. Enumeration order is
// deterministic (swap-based permutation generation in class order).
func (c *checker) forEachArrangement(base []codec.Fingerprint, arr []codec.Fingerprint, fn func()) {
	copy(arr, base)
	classes := c.canon.Classes()
	var rec func(ci int)
	rec = func(ci int) {
		if ci == len(classes) {
			fn()
			return
		}
		permuteAt(arr, classes[ci], 0, func() { rec(ci + 1) })
	}
	rec(0)
}

// permuteAt enumerates, in place, all permutations of the values at the slot
// positions cl[k:] of buf, invoking fn for each; buf is restored before
// returning. Equal values produce duplicate arrangements — the caller
// deduplicates by fingerprint.
func permuteAt(buf []codec.Fingerprint, cl []int, k int, fn func()) {
	if k == len(cl) {
		fn()
		return
	}
	for i := k; i < len(cl); i++ {
		buf[cl[k]], buf[cl[i]] = buf[cl[i]], buf[cl[k]]
		permuteAt(buf, cl, k+1, fn)
		buf[cl[k]], buf[cl[i]] = buf[cl[i]], buf[cl[k]]
	}
}

// soundTally accumulates the per-search counters of one soundness search so
// speculative parallel confirmations can merge them at the canonical point
// (confirmBatch's sequential merge), exactly like the sequence counter they
// generalize.
type soundTally struct {
	// seqs counts sequence combinations examined (stats.SequencesChecked).
	seqs int
	// porPathsDropped counts per-node paths dropped by the flow-signature
	// dedupe (stats.PORPathsDeduped).
	porPathsDropped int
	// porDetached counts combination members validated outside the
	// interleaving odometer (stats.PORDetached).
	porDetached int
}

// addTally merges a sequentially produced tally into the run stats.
func (c *checker) addTally(t *soundTally) {
	c.res.Stats.SequencesChecked += t.seqs
	c.res.Stats.PORPathsDeduped += t.porPathsDropped
	c.res.Stats.PORDetached += t.porDetached
}

// flowSignature fingerprints what a path means to isSequenceValid: the
// ordered sequence of (event kind, consumed message fingerprint, generated
// multiset). The validator's verdict — and, because predecessor edges encode
// real handler executions ending at the same node state, the replayed final
// state — is a pure function of this signature, so paths sharing it are
// interchangeable.
func flowSignature(p []pred) codec.Fingerprint {
	h := codec.NewHasher()
	for i := range p {
		e := &p[i]
		h.Add(codec.Fingerprint(e.kind))
		h.Add(e.msgFP)
		h.Add(codec.CombineUnordered(e.generated))
	}
	return h.Sum()
}

// dedupFlowPaths drops paths whose flow signature duplicates an earlier
// path's, keeping the first occurrence (enumeration order is deterministic,
// and the kept path is a real predecessor-DAG path, so returned schedules
// still replay). This is the first half of the partial-order reduction: two
// paths that consume and generate the same messages in the same order are
// the same interleaving constraint, and the odometer must not pay for both.
func dedupFlowPaths(paths [][]pred, dropped *int) [][]pred {
	if len(paths) < 2 {
		return paths
	}
	seen := make(map[codec.Fingerprint]struct{}, len(paths))
	out := paths[:0]
	for _, p := range paths {
		sig := flowSignature(p)
		if _, dup := seen[sig]; dup {
			*dropped++
			continue
		}
		seen[sig] = struct{}{}
		out = append(out, p)
	}
	return out
}

// porPartition splits the combination members into the odometer core and the
// detachable members. Member k is detachable when no path of any other
// member consumes a message any path of k generates. Consumed sets are
// pairwise disjoint by construction — a node only consumes messages
// addressed to it (netstate.Independent's receiver disjointness) — so the
// generated/consumed test is the whole commutation condition: a detachable
// member's events commute past every other member's, and its delivery
// interleavings need never be enumerated against them.
func porPartition(paths [][][]pred) (core, det []int) {
	n := len(paths)
	consumed := make([]map[codec.Fingerprint]struct{}, n)
	generated := make([]map[codec.Fingerprint]struct{}, n)
	for k := range paths {
		cons := make(map[codec.Fingerprint]struct{})
		gen := make(map[codec.Fingerprint]struct{})
		for _, p := range paths[k] {
			for i := range p {
				e := &p[i]
				if e.kind == model.NetworkEvent {
					cons[e.msgFP] = struct{}{}
				}
				for _, g := range e.generated {
					gen[g] = struct{}{}
				}
			}
		}
		consumed[k] = cons
		generated[k] = gen
	}
	for k := range paths {
		detachable := true
		for j := range paths {
			if j == k {
				continue
			}
			for g := range generated[k] {
				if _, need := consumed[j][g]; need {
					detachable = false
					break
				}
			}
			if !detachable {
				break
			}
		}
		if detachable {
			det = append(det, k)
		} else {
			core = append(core, k)
		}
	}
	return core, det
}

// searchSequences is the back half of isStateSound: an odometer over the
// per-member path choices, each combination handed to the greedy validator,
// capped by the sequence budget (the exponential cost §5.2 identifies).
//
// Unreduced, the odometer ranges over every member. With the partial-order
// reduction it ranges over the core members only, and each valid core
// interleaving is extended by appending, for every detachable member, the
// first of its paths that validates against the core's final message pool.
//
// The reduction is exact, both directions. Completeness: in any valid full
// interleaving, core events never consume detached-generated messages (the
// detachability condition), so the core projection is itself valid and the
// core odometer finds it; a detachable member's path then appends validly
// because postponing it only grows its supply (nothing it needs is consumed
// by others — receivers are disjoint — and nothing it generates is needed
// before it runs). Soundness: the assembled schedule is validated piecewise
// by the same greedy fingerprint accounting and then replay-confirmed like
// any other witness.
//
// Budget: only core combinations charge the shared sequence budget. Append
// attempts are linear in a single path and budget-exempt, which makes the
// reduced search dominate the unreduced one under any shared budget — the
// full odometer reaches a given combination no earlier (in charges) than the
// core odometer reaches its projection, so every witness the unreduced
// search can afford, the reduced search can too. They still count into the
// sequence tally as examined work.
func (c *checker) searchSequences(sc *soundScratch, paths [][][]pred, budget *int, tally *soundTally) (bool, trace.Schedule) {
	var core, det []int
	if c.opt.Reduce.PartialOrder {
		for k := range paths {
			paths[k] = dedupFlowPaths(paths[k], &tally.porPathsDropped)
		}
		core, det = porPartition(paths)
	} else {
		sc.core = grow(sc.core, len(paths))
		core = sc.core
		for k := range core {
			core[k] = k
		}
	}
	sc.idx, sc.cand = grow(sc.idx, len(core)), grow(sc.cand, len(core))
	idx, cand := sc.idx, sc.cand
	clear(idx)
	for {
		for i, k := range core {
			cand[i] = paths[k][idx[i]]
		}
		*budget--
		tally.seqs++
		if ok, sched, net := c.isSequenceValid(sc, cand); ok {
			good := true
			for _, k := range det {
				found := false
				for _, p := range paths[k] {
					tally.seqs++
					if ok2, sub := appendValid(net, p); ok2 {
						tally.porDetached++
						sched = append(sched, sub...)
						found = true
						break
					}
				}
				if !found {
					good = false
					break
				}
			}
			if good {
				return true, sched
			}
		}
		if *budget <= 0 {
			return false, nil
		}
		k := 0
		for ; k < len(idx); k++ {
			idx[k]++
			if idx[k] < len(paths[core[k]]) {
				break
			}
			idx[k] = 0
		}
		if k == len(idx) {
			return false, nil
		}
	}
}

// appendValid validates one path appended after an already-validated
// schedule whose final message pool is net: every network event must find
// its message in the pool extended by the path's own earlier emissions. On
// success the pool is updated (so later detachable members see the combined
// supply — immaterial for correctness, since no two members consume the same
// fingerprints, but it keeps the accounting the exact greedy semantics of
// the concatenated schedule) and the path's events are returned in order.
// On failure net is left unchanged.
func appendValid(net map[codec.Fingerprint]int, p []pred) (bool, trace.Schedule) {
	delta := make(map[codec.Fingerprint]int)
	for i := range p {
		e := &p[i]
		if e.kind == model.NetworkEvent {
			if net[e.msgFP]+delta[e.msgFP] <= 0 {
				return false, nil
			}
			delta[e.msgFP]--
		}
		for _, g := range e.generated {
			delta[g]++
		}
	}
	for fp, d := range delta {
		net[fp] += d
	}
	sched := make(trace.Schedule, len(p))
	for i := range p {
		sched[i] = p[i].event()
	}
	return true, sched
}
