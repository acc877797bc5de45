package core

import (
	"lmc/internal/codec"
	"lmc/internal/model"
	"lmc/internal/trace"
)

// isStateSound is Procedure isStateSound of Figure 9: given the node states
// of a preliminarily violating system state, enumerate the event sequences
// that could lead to each node state (by following predecessor pointers, at
// most pathCap per node — the combinatorial cost §5.2 identifies), and search
// the Cartesian product of the per-node sequences for one combination that
// admits a valid total order. The system state is valid iff such a
// combination exists; the realizing schedule is returned as the
// counterexample witness.
//
// The sequence budget is the caller's, so one witness search can spread its
// allowance across many candidate combinations. Checked sequences are counted
// into *seqs rather than the result stats directly, so speculative
// confirmations can run on worker goroutines and merge their counts at the
// canonical point. The search works out of the caller's scratch.
func (c *checker) isStateSound(combo []*nodeState, pathCap int, budget, seqs *int, sc *soundScratch) (bool, trace.Schedule) {
	sc.arena = sc.arena[:0]
	sc.paths = grow(sc.paths, len(combo))
	paths := sc.paths
	for k, ns := range combo {
		paths[k] = c.spaces[ns.node].enumeratePathsCapped(sc, ns, pathCap, paths[k][:0])
		if len(paths[k]) == 0 {
			// No acyclic predecessor path within caps: cannot validate.
			return false, nil
		}
	}
	c.densify(sc, combo)
	// An odometer over the per-node path choices, each combination handed to
	// the greedy validator and capped by the sequence budget (the exponential
	// cost §5.2 identifies).
	sc.idx = grow(sc.idx, len(paths))
	idx := sc.idx
	clear(idx)
	for {
		*budget--
		*seqs++
		if sc.sequenceValid(idx) {
			return true, c.schedule(sc, combo, idx)
		}
		if *budget <= 0 {
			return false, nil
		}
		k := 0
		for ; k < len(idx); k++ {
			idx[k]++
			if idx[k] < len(paths[k]) {
				break
			}
			idx[k] = 0
		}
		if k == len(idx) {
			return false, nil
		}
	}
}

// soundScratch is the working memory of soundness searches: what
// isStateSound would otherwise allocate per combination, per member and per
// sequence, almost all of which fail. It is the caller's and travels with
// the call: confirmBatch's workers search concurrently, so it is never the
// checker's. A witness search passes the one on its own scratch, a batch job
// a fresh one; the zero value is ready. A schedule handed back is freshly
// allocated; enumerated paths are the scratch's, good until the next call
// given it.
type soundScratch struct {
	// enumeratePathsCapped: the backward walk's stack, and the arena behind
	// the paths of one isStateSound call (every member's are alive at once).
	rev   []pred
	arena []pred
	paths [][][]pred
	// isStateSound: the odometer.
	idx []int
	// densify: the call's paths on call-local message ids. ids numbers the
	// fingerprints the paths mention, init is each id's initial count, and
	// dense[k][p] is paths[k][p] as dense edges, carved from edges, whose
	// generated ids are spans of gen.
	ids   msgIndex
	init  []int32
	edges []denseEdge
	gen   []int32
	dense [][][]denseEdge
	// sequenceValid: the message counts, each sequence's position, and
	// which sequence ran each executed event — the schedule, not yet
	// materialized.
	count []int32
	pos   []int
	order []int
}

// denseEdge is a predecessor edge on call-local message ids: the consumed
// id (-1 for an internal event) and the generated ids, gen[genOff:genEnd]
// of its scratch.
type denseEdge struct {
	need, genOff, genEnd int32
}

// carve hands out a path of n edges from the arena. A full arena is replaced,
// not grown in place: paths carved earlier keep the old one alive.
func (sc *soundScratch) carve(n int) []pred {
	if cap(sc.arena)-len(sc.arena) < n {
		sc.arena = make([]pred, 0, max(2*cap(sc.arena), n, 256))
	}
	lo := len(sc.arena)
	sc.arena = sc.arena[:lo+n]
	return sc.arena[lo : lo+n : lo+n]
}

// enumeratePathsCapped lists event sequences (as predecessor-edge slices
// ordered start→state) that lead from the node's start state to ns, one of
// the space's states. Following the paper's simplification, self-referencing
// edges are ignored (exploration never records them, nodeState.preds) and,
// more generally, a backward walk never revisits a state already on its
// stack; the enumeration is capped at maxPaths paths. The paths are appended
// to out and carved from sc's arena.
func (sp *space) enumeratePathsCapped(sc *soundScratch, ns *nodeState, maxPaths int, out [][]pred) [][]pred {
	rev := sc.rev[:0] // edges from ns backward
	// The stack is ns and the sources of the edges in rev; it is a path's
	// length deep, so scanning it beats keeping a set beside it.
	onStack := func(seq int32) bool {
		if int(seq) == ns.seq {
			return true
		}
		for i := range rev {
			if rev[i].prev == seq {
				return true
			}
		}
		return false
	}

	// The backward walk is capped on visited edges, not only on completed
	// paths: a dense predecessor DAG can wander exponentially between
	// completions (dead ends whose predecessors are all on the stack), and
	// the wandering budget must stay bounded regardless of DAG shape.
	steps := 0
	const maxSteps = 1 << 12

	var walk func(cur *nodeState)
	walk = func(cur *nodeState) {
		steps++
		if len(out) >= maxPaths || steps > maxSteps {
			return
		}
		if cur.seq == 0 {
			// Reached the node's start state: materialize the path in
			// forward order.
			path := sc.carve(len(rev))
			for i := range rev {
				path[i] = rev[len(rev)-1-i]
			}
			out = append(out, path)
			return
		}
		for i := range cur.preds {
			e := cur.preds[i]
			if onStack(e.prev) {
				continue
			}
			rev = append(rev, e)
			walk(sp.states[e.prev])
			rev = rev[:len(rev)-1]
			if len(out) >= maxPaths || steps > maxSteps {
				return
			}
		}
	}
	walk(ns)
	sc.rev = rev
	return out
}

// densify translates the enumerated paths of combo's members into dense
// edges over call-local message ids, once per isStateSound call, so each
// sequence the odometer hands the validator costs array reads only.
func (c *checker) densify(sc *soundScratch, combo []*nodeState) {
	sc.ids.reset()
	sc.init, sc.gen = sc.init[:0], sc.gen[:0]
	id := func(fp codec.Fingerprint) int32 {
		x, fresh := sc.ids.id(fp)
		if fresh {
			sc.init = append(sc.init, int32(c.initNetCount[fp]))
		}
		return x
	}
	total := 0
	for _, ps := range sc.paths[:len(combo)] {
		for _, p := range ps {
			total += len(p)
		}
	}
	sc.edges = grow(sc.edges, total)
	sc.dense = grow(sc.dense, len(combo))
	at := 0
	for k, ns := range combo {
		sp := c.spaces[ns.node]
		ds := sc.dense[k][:0]
		for _, p := range sc.paths[k] {
			seq := sc.edges[at : at+len(p) : at+len(p)]
			at += len(p)
			for i := range p {
				e := &p[i]
				d := denseEdge{need: -1, genOff: int32(len(sc.gen))}
				if e.kind == model.NetworkEvent {
					d.need = id(e.msgFP)
				}
				for _, g := range sp.generated(e) {
					sc.gen = append(sc.gen, id(g))
				}
				d.genEnd = int32(len(sc.gen))
				seq[i] = d
			}
			ds = append(ds, seq)
		}
		sc.dense[k] = ds
	}
}

// msgIndex numbers one call's message fingerprints 0, 1, 2, … in order of
// first use: an open-addressed table that a new call empties by moving to
// the next generation, so densify pays neither a map operation per edge nor
// a clear per call.
type msgIndex struct {
	slots []msgSlot // a power of two, at most half full
	gen   uint32
	n     int32
}

type msgSlot struct {
	fp  codec.Fingerprint
	gen uint32 // the slot is in use iff gen is the table's
	id  int32
}

func (t *msgIndex) reset() {
	t.gen++
	t.n = 0
	if t.gen == 0 || t.slots == nil {
		t.slots = make([]msgSlot, max(len(t.slots), 64))
		t.gen = 1
	}
}

// id returns fp's id, and whether this call of id gave it.
func (t *msgIndex) id(fp codec.Fingerprint) (int32, bool) {
	mask := len(t.slots) - 1
	for i := t.home(fp); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.gen != t.gen {
			*s = msgSlot{fp: fp, gen: t.gen, id: t.n}
			t.n++
			if 2*int(t.n) > len(t.slots) {
				t.rehash()
			}
			return t.n - 1, true
		}
		if s.fp == fp {
			return s.id, false
		}
	}
}

func (t *msgIndex) home(fp codec.Fingerprint) int {
	return int(uint64(fp)*0x9e3779b97f4a7c15>>32) & (len(t.slots) - 1)
}

// rehash doubles the table.
func (t *msgIndex) rehash() {
	old := t.slots
	t.slots = make([]msgSlot, 2*len(old))
	mask := len(t.slots) - 1
	for _, s := range old {
		if s.gen != t.gen {
			continue
		}
		i := t.home(s.fp)
		for t.slots[i].gen == t.gen {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}

// sequenceValid is Procedure isSequenceValid of Figure 9, in the efficient
// formulation of §4.2: rather than loading a simulator, events are validated
// by integer comparisons — here on the call's dense message ids (densify),
// member k running its path idx[k]. A local event is always enabled; a
// network event is enabled when a copy of its required message is present
// among the generated (and not yet consumed) messages. Executing an event
// consumes its required message and adds the messages it generated. The
// greedy strategy is complete: it does not matter which enabled event runs
// next, since the order demanded by the per-node sequences is enforced by
// only ever consuming messages that were already generated. The order the
// events ran in is left in sc.order for schedule, which is called only for a
// sequence that validates — one in thousands.
func (sc *soundScratch) sequenceValid(idx []int) bool {
	count := grow(sc.count, len(sc.init))
	copy(count, sc.init)
	pos := grow(sc.pos, len(idx))
	clear(pos)
	order := sc.order[:0]

	for {
		progressed := false
		for k, p := range idx {
			seq := sc.dense[k][p]
			for pos[k] < len(seq) {
				e := &seq[pos[k]]
				if e.need >= 0 {
					if count[e.need] <= 0 {
						break
					}
					count[e.need]--
				}
				for _, g := range sc.gen[e.genOff:e.genEnd] {
					count[g]++
				}
				order = append(order, k)
				pos[k]++
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
	sc.count, sc.pos, sc.order = count, pos, order
	for k, p := range idx {
		if pos[k] != len(sc.dense[k][p]) {
			return false
		}
	}
	return true
}

// schedule materializes the events of the sequence sequenceValid just
// validated, in the order it ran them.
func (c *checker) schedule(sc *soundScratch, combo []*nodeState, idx []int) trace.Schedule {
	sched := make(trace.Schedule, len(sc.order))
	pos := sc.pos
	clear(pos)
	for i, k := range sc.order {
		sched[i] = c.event(combo[k].node, &sc.paths[k][idx[k]][pos[k]])
		pos[k]++
	}
	return sched
}
