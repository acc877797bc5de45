package core

import (
	"sort"

	"lmc/internal/codec"
	"lmc/internal/model"
)

// This file is the incremental index layer under the witness search. The
// sequential formulation of the search (witness.go) re-derived two kinds of
// facts from scratch on every call:
//
//   - whether ANY visited state of a completion node generates a message
//     fingerprint (a scan of the node's whole visited list, walking each
//     state's generated-message chain);
//   - the missing-message set of a candidate pair (a walk of both members'
//     creation paths, rebuilding need/supply multisets).
//
// Both are replaced here by structures maintained incrementally as states
// are discovered: a per-node producer index and per-state flow memos. Each
// replacement is exact — see the equivalence notes on the individual pieces
// — so searches return the same verdicts the rescanning formulation
// returned, only cheaper. Nothing is remembered per candidate pair: a pair
// is examined at most once per run. DESIGN.md ("Indexed soundness engine")
// has the full argument.

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
// creation path and, like creationPath itself, writes only ns.
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
// order, into dst's backing array (the witness search hands it the same
// buffer for every candidate pair). This is exactly the missing set of the
// old multiset walk — fp is missing iff need(fp) > generated(fp) +
// initial(fp), i.e. flow(fp) > initial(fp) — except for the order of the
// returned slice, which nothing downstream is sensitive to: feasibility
// checks membership, the completion-order key is an unordered combination,
// and orderByCoverage counts matches.
func (c *checker) missingFromFlows(dst []codec.Fingerprint, a, b []flowEntry) []codec.Fingerprint {
	missing := dst[:0]
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
