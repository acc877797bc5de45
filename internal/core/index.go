package core

import (
	"sort"

	"lmc/internal/codec"
	"lmc/internal/model"
)

// This file is the incremental index layer under the witness search. The
// sequential formulation of the search (witness.go) re-derived three kinds
// of facts from scratch on every call:
//
//   - whether ANY visited state of a completion node generates a message
//     fingerprint (a scan of the node's whole visited list, walking each
//     state's generated-message chain);
//   - the missing-message set of a candidate pair (a walk of both members'
//     creation paths, rebuilding need/supply multisets);
//   - the verdict of a pair that an earlier search already refuted (the
//     full Cartesian walk over the completion lists, re-materializing and
//     re-checking every combination).
//
// All three are replaced here by structures maintained incrementally as
// states are discovered: a per-node producer index, per-state flow memos,
// and an epoch-gated outcome cache keyed by (pair, missing set). Each
// replacement is exact — see the equivalence notes on the individual
// pieces — so searches return the same verdicts the rescanning formulation
// returned, only cheaper. DESIGN.md ("Indexed soundness engine") has the
// full argument.

// ---------------------------------------------------------------------------
// Producer index
//
// minProducer (on space) maps a message fingerprint to the seq of the first
// state whose creation edge generated it. The index answers the coverage
// question "does any state of node n visible under the view generate fp on
// its creation path" in O(1):
//
//   ∃ s ∈ states[:lim] with s.gen.contains(fp)  ⇔  minProducer[fp] < lim
//
// (⇐) the producing state's own gen chain contains fp. (⇒) if s.gen
// contains fp, some ancestor t on s's creation path has fp on its creation
// edge; ancestors are discovered before their descendants, so t.seq ≤ s.seq
// < lim and minProducer[fp] ≤ t.seq. Edges later added to existing states by
// addPred never enter any gen chain (gen is fixed at discovery), so indexing
// only the creation edge is not an approximation.

// indexProducers records ns's creation-edge emissions; called by space.add,
// so the index is maintained as a cheap delta at discovery time by the
// worker that owns the node.
func (sp *space) indexProducers(ns *nodeState) {
	if len(ns.preds) == 0 {
		return
	}
	for _, fp := range ns.preds[0].generated {
		if _, ok := sp.minProducer[fp]; !ok {
			sp.minProducer[fp] = ns.seq
		}
	}
}

// producerBefore reports whether some state with seq < lim generates fp
// along its creation path.
func (sp *space) producerBefore(fp codec.Fingerprint, lim int) bool {
	seq, ok := sp.minProducer[fp]
	return ok && seq < lim
}

// viewStates is the visited-state list of node n as seen at a discovery's
// virtual time: view[n] is the number of its states visible then.
func (c *checker) viewStates(n int, view []int) []*nodeState {
	return c.spaces[n].states[:view[n]]
}

// coveredByAny answers one coverage query through the producer index: can
// any completion node visible under the view supply fp? Queries run on the
// sequential merge path, so the hit/miss counters stay deterministic for
// every worker count.
func (c *checker) coveredByAny(completionNodes []int, fp codec.Fingerprint, view []int) bool {
	for _, n := range completionNodes {
		if c.spaces[n].producerBefore(fp, view[n]) {
			c.res.Stats.CoverIndexHits++
			return true
		}
	}
	c.res.Stats.CoverIndexMisses++
	return false
}

// ---------------------------------------------------------------------------
// Flow memos
//
// flowEntry records the creation path's net demand for one message
// fingerprint: consumed count minus generated count. Positive entries are
// messages the path needs beyond what it produces itself; negative entries
// are surplus production that can offset the other pair member's demand. A
// state's memo is the multiset difference the old missingOf walk rebuilt on
// every call, computed once — from the predecessor's memo plus the creation
// edge's delta at discovery, or from the memoized creation path on first use
// for states added outside the exploration loop (tests).
type flowEntry struct {
	fp codec.Fingerprint
	n  int
}

// sortFlows is an allocation-free insertion sort; edge deltas hold a
// handful of entries.
func sortFlows(fs []flowEntry) {
	for i := 1; i < len(fs); i++ {
		for j := i; j > 0 && fs[j].fp < fs[j-1].fp; j-- {
			fs[j], fs[j-1] = fs[j-1], fs[j]
		}
	}
}

// edgeFlow is the flow delta of one predecessor edge: +1 for the consumed
// message, −1 per generated message, coalesced and sorted.
func edgeFlow(e *pred, scratch []flowEntry) []flowEntry {
	d := scratch[:0]
	if e.kind == model.NetworkEvent {
		d = append(d, flowEntry{fp: e.msgFP, n: 1})
	}
	for _, g := range e.generated {
		d = append(d, flowEntry{fp: g, n: -1})
	}
	sortFlows(d)
	out := d[:0]
	for _, fe := range d {
		if len(out) > 0 && out[len(out)-1].fp == fe.fp {
			out[len(out)-1].n += fe.n
		} else {
			out = append(out, fe)
		}
	}
	return out
}

// mergeFlows adds two sorted flow memos, dropping zero entries. Both inputs
// are immutable; the result is fresh.
func mergeFlows(a, b []flowEntry) []flowEntry {
	out := make([]flowEntry, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j >= len(b) || (i < len(a) && a[i].fp < b[j].fp):
			out = append(out, a[i])
			i++
		case i >= len(a) || b[j].fp < a[i].fp:
			out = append(out, b[j])
			j++
		default:
			if n := a[i].n + b[j].n; n != 0 {
				out = append(out, flowEntry{fp: a[i].fp, n: n})
			}
			i++
			j++
		}
	}
	return out
}

// flowOf returns ns's flow memo. States discovered by the exploration loop
// carry it from addNext; the fallback derives it from the (memoized)
// creation path and, like creationPath itself, writes only ns — safe under
// the candidate-prep fanout, which hands each worker distinct states.
func flowOf(ns *nodeState) []flowEntry {
	if ns.flowDone {
		return ns.flow
	}
	m := make(map[codec.Fingerprint]int)
	for _, e := range creationPath(ns) {
		if e.kind == model.NetworkEvent {
			m[e.msgFP]++
		}
		for _, g := range e.generated {
			m[g]--
		}
	}
	out := make([]flowEntry, 0, len(m))
	for fp, n := range m {
		if n != 0 {
			out = append(out, flowEntry{fp: fp, n: n})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].fp < out[j].fp })
	ns.flow = out
	ns.flowDone = true
	return out
}

// missingFromFlows lists the fingerprints whose combined demand across two
// memos exceeds what the seeded network supplies, in ascending fingerprint
// order. This is exactly the missing set of the old multiset walk — fp is
// missing iff need(fp) > generated(fp) + initial(fp), i.e. flow(fp) >
// initial(fp) — except for the order of the returned slice, which nothing
// downstream is sensitive to: feasibility checks membership, the cache key
// is an unordered combination, and orderByCoverage counts matches.
func (c *checker) missingFromFlows(a, b []flowEntry) []codec.Fingerprint {
	var missing []codec.Fingerprint
	emit := func(fe flowEntry) {
		if fe.n > c.initNetCount[fe.fp] {
			missing = append(missing, fe.fp)
		}
	}
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j >= len(b) || (i < len(a) && a[i].fp < b[j].fp):
			emit(a[i])
			i++
		case i >= len(a) || b[j].fp < a[i].fp:
			emit(b[j])
			j++
		default:
			emit(flowEntry{fp: a[i].fp, n: a[i].n + b[j].n})
			i++
			j++
		}
	}
	return missing
}

// ---------------------------------------------------------------------------
// Epoch-gated witness outcome cache
//
// The same candidate pair recurs across searches — most commonly as its own
// mirror: when A's discovery searched (A, B), B's own search later examines
// (B, A) with the identical unordered missing set — and the sequential
// formulation re-ran the full Cartesian walk each time. The cache records
// refutations with the evidence that produced them, and an encounter is
// skipped only while that evidence still holds under the encounter's view:
//
//   - an infeasibility refutation records WHICH fingerprints had no
//     producer; the pair is retried only after the producer index gains a
//     covering state for every one of them (and then goes through the full
//     feasibility check again, so fingerprints that were covered at
//     refutation time are still re-validated against the new view);
//   - a completed-walk refutation records the frontier of visible
//     completion-list lengths it enumerated. Visited lists only grow, so an
//     encounter whose frontier fits under a recorded one walks a subset of
//     combinations whose verdicts are all deterministic repeats (invariant
//     checks are pure; soundness verdicts are cached globally) — the walk
//     would return refuted again without side effects on the bug list.
//
// Searches that found a witness, or walks cut short by the budget or a stop
// criterion, are never cached: they re-run exactly as before.
type pairKey struct {
	// pair combines the two member state fingerprints in canonical node
	// order (lower node first). Order sensitivity matters: combining
	// unordered would alias the pair (X at the lower node, Y at the higher)
	// with its swapped counterpart, which materializes different system
	// states — while a mirror encounter of the same assignment still maps to
	// the same key.
	pair           codec.Fingerprint
	nodeLo, nodeHi int
	// miss identifies the pair's missing-message set (unordered).
	miss codec.Fingerprint
}

// pairOutcome is the recorded refutation evidence for one (pair, missing
// set).
type pairOutcome struct {
	// uncovered are the fingerprints that had no producer when the pair was
	// refuted as infeasible; cleared when the index gains coverage.
	uncovered []codec.Fingerprint
	// refuted are completed-walk frontiers (visible completion-list lengths,
	// aligned with the search's ascending completion-node order).
	refuted [][]int
}

// maxPairOutcomes bounds the cache; beyond it, new refutations are simply
// not recorded (searches stay correct, just uncached).
const maxPairOutcomes = 1 << 20

func pairKeyOf(a, b *nodeState, miss codec.Fingerprint) pairKey {
	lo, hi := a, b
	if lo.node > hi.node {
		lo, hi = hi, lo
	}
	return pairKey{
		pair:   codec.Combine(lo.fp, hi.fp),
		nodeLo: int(lo.node),
		nodeHi: int(hi.node),
		miss:   miss,
	}
}

// limitsUnder reports whether cur is elementwise ≤ rec.
func limitsUnder(cur, rec []int) bool {
	if len(cur) != len(rec) {
		return false
	}
	for i := range cur {
		if cur[i] > rec[i] {
			return false
		}
	}
	return true
}

// refutedUnder reports whether some recorded frontier dominates cur.
func (oc *pairOutcome) refutedUnder(cur []int) bool {
	for _, rec := range oc.refuted {
		if limitsUnder(cur, rec) {
			return true
		}
	}
	return false
}

// maxRefutedFrontiers caps the frontiers kept per outcome; incomparable
// frontiers beyond the cap evict the oldest.
const maxRefutedFrontiers = 4

// addRefuted records a completed-walk refutation frontier, dropping
// frontiers it dominates.
func (oc *pairOutcome) addRefuted(limits []int) {
	kept := oc.refuted[:0]
	for _, rec := range oc.refuted {
		if !limitsUnder(rec, limits) {
			kept = append(kept, rec)
		}
	}
	oc.refuted = kept
	if len(oc.refuted) >= maxRefutedFrontiers {
		copy(oc.refuted, oc.refuted[1:])
		oc.refuted = oc.refuted[:len(oc.refuted)-1]
	}
	oc.refuted = append(oc.refuted, limits)
}

// ensureOutcome returns the outcome record for key, creating it (and the
// cache) on demand; nil when the cache is full and key is new.
func (c *checker) ensureOutcome(key pairKey) *pairOutcome {
	if oc := c.pairOutcomes[key]; oc != nil {
		return oc
	}
	if len(c.pairOutcomes) >= maxPairOutcomes {
		return nil
	}
	if c.pairOutcomes == nil {
		c.pairOutcomes = make(map[pairKey]*pairOutcome)
	}
	oc := &pairOutcome{}
	c.pairOutcomes[key] = oc
	return oc
}
