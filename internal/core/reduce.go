package core

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"lmc/internal/codec"
	"lmc/internal/model"
)

// Reductions selects the optional state-space reduction of the GEN sweep.
// The default is off; a reduced run must find every violation the unreduced
// run finds (the diffcheck corpus gates this end to end), it just
// materializes fewer system states doing so.
type Reductions struct {
	// Symmetry enables role-symmetry reduction: when the machine declares
	// interchangeable node classes (model.Symmetric), the GEN sweep skips
	// system-state combinations that are non-canonical permutations of an
	// already-covered arrangement and re-expands violating orbits at the
	// fixpoint. Machines without the capability run unreduced.
	Symmetry bool
}

// String renders the enabled reductions in the -reduce flag syntax.
func (r Reductions) String() string {
	if r.Symmetry {
		return "sym"
	}
	return "none"
}

// ParseReductions parses a -reduce flag value: a comma-separated subset of
// "sym" and "all" (a synonym), or "", "none" or "off" for none. "por" and
// "partial-order" are accepted and ignored: the partial-order reduction of
// the soundness search was measured to lose on every workload and deleted,
// and stored job specs and scripts still name it.
func ParseReductions(s string) (Reductions, error) {
	var r Reductions
	s = strings.TrimSpace(s)
	if s == "" || s == "none" || s == "off" {
		return r, nil
	}
	for _, part := range strings.Split(s, ",") {
		switch strings.TrimSpace(part) {
		case "sym", "symmetry", "all":
			r.Symmetry = true
		case "por", "partial-order", "":
		default:
			return Reductions{}, fmt.Errorf("core: unknown reduction %q (want sym, all, or none)", part)
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
