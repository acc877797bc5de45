package core

import (
	"cmp"
	"slices"

	"lmc/internal/codec"
	"lmc/internal/model"
)

// This file is the index layer under the witness search (witness.go). A
// search asks two kinds of questions about creation chains — a state's
// chain is its creation edge preds[0], then preds[0].prev's, and so on back
// to seq 0 — and neither is answered by walking them per candidate pair:
//
//   - whether ANY visited state of a completion node generates a message
//     fingerprint along its chain: the per-node producer index, maintained
//     as states are discovered;
//   - the missing-message set of a candidate pair: a merge of the members'
//     flow memos, each built from its chain once, the first time a search
//     reads it (flowOf), so a run that raises no search builds none.
//
// Both are exact — see the equivalence notes on the individual pieces.
// Nothing is remembered per candidate pair: a pair is examined at most once
// per run. DESIGN.md ("Indexed soundness engine") has the full argument.

// ---------------------------------------------------------------------------
// Producer index
//
// minProducer (on space) maps a message fingerprint to the seq of the first
// state whose creation edge generated it. The index answers the coverage
// question "does any state of node n visible under the view generate fp on
// its creation chain" in O(1):
//
//   ∃ s ∈ states[:lim] with s.creationEmits(fp)  ⇔  minProducer[fp] < lim
//
// (⇐) the producing state's own chain starts with the emitting edge. (⇒) if
// s's chain emits fp, some state t on it (s or an ancestor) has fp on its
// creation edge; ancestors are discovered before their descendants, so
// t.seq ≤ s.seq < lim and minProducer[fp] ≤ t.seq. Edges later added to
// existing states by addPred are on no creation chain (preds[0] is fixed at
// discovery), so indexing only the creation edge is not an approximation.

// creationEmits reports whether an edge of ns's creation chain generated fp:
// the per-state scan the producer index summarizes, still asked directly
// where states are ranked one by one (orderByCoverage).
func (ns *nodeState) creationEmits(fp codec.Fingerprint) bool {
	for cur := ns; cur.seq != 0; cur = cur.preds[0].prev {
		if slices.Contains(cur.preds[0].generated, fp) {
			return true
		}
	}
	return false
}

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
// along its creation chain.
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
// flowEntry records the creation chain's net demand for one message
// fingerprint: consumed count minus generated count. Positive entries are
// messages the chain needs beyond what it produces itself; negative entries
// are surplus production that can offset the other pair member's demand.
type flowEntry struct {
	fp codec.Fingerprint
	n  int
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
	slices.SortFunc(d, func(a, b flowEntry) int { return cmp.Compare(a.fp, b.fp) })
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

// flowOf returns ns's flow memo — the predecessor's memo plus the creation
// edge's delta — building it, and every ancestor's still missing, on first
// use. It is the only builder, and it writes the states it walks: witness
// searches, its callers, run one at a time on the merge goroutine. A built
// memo is never nil (mergeFlows); a start state's chain is empty and its
// memo stays nil.
func flowOf(ns *nodeState) []flowEntry {
	if ns.flow == nil && ns.seq != 0 {
		var scratch [8]flowEntry
		e := &ns.preds[0]
		ns.flow = mergeFlows(flowOf(e.prev), edgeFlow(e, scratch[:]))
	}
	return ns.flow
}

// missingFromFlows lists the fingerprints whose combined demand across two
// memos exceeds what the seeded network supplies, in ascending fingerprint
// order, into dst's backing array (the witness search hands it the same
// buffer for every candidate pair): fp is missing iff need(fp) >
// generated(fp) + initial(fp) over both chains, i.e. flow(fp) > initial(fp).
// Nothing downstream is sensitive to the order: feasibility checks
// membership, the completion-order key is an unordered combination, and
// orderByCoverage counts matches.
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
