package core

import (
	"maps"

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
	// An odometer over the per-node path choices, each combination handed to
	// the greedy validator and capped by the sequence budget (the exponential
	// cost §5.2 identifies).
	sc.idx, sc.cand = grow(sc.idx, len(paths)), grow(sc.cand, len(paths))
	idx, cand := sc.idx, sc.cand
	clear(idx)
	for {
		for k := range paths {
			cand[k] = paths[k][idx[k]]
		}
		*budget--
		*seqs++
		if ok, sched := c.isSequenceValid(sc, combo, cand); ok {
			return true, sched
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
// isStateSound would otherwise allocate per combination, per member and —
// in isSequenceValid — per sequence, almost all of which fail. It is the
// caller's and travels with the call: confirmBatch's workers search
// concurrently, so it is never the checker's. A witness search passes the
// one on its own scratch, a batch job a fresh one; the zero value is ready.
// A schedule handed back is freshly allocated; enumerated paths are the
// scratch's, good until the next call given it.
type soundScratch struct {
	// enumeratePathsCapped: the backward walk's stack, and the arena behind
	// the paths of one isStateSound call (every member's are alive at once).
	onStack map[int32]bool // by seq
	rev     []pred
	arena   []pred
	paths   [][][]pred
	// isStateSound: the odometer.
	idx  []int
	cand [][]pred
	// isSequenceValid: the message pool, each sequence's position, and which
	// sequence ran each executed event — the schedule, not yet materialized.
	net   map[codec.Fingerprint]int
	pos   []int
	order []int
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
	if sc.onStack == nil {
		sc.onStack = make(map[int32]bool)
	}
	// A walk cut short by a cap returns from under its stack.
	clear(sc.onStack)
	onStack := sc.onStack
	onStack[int32(ns.seq)] = true
	rev := sc.rev[:0] // edges from ns backward

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
			if onStack[e.prev] {
				continue
			}
			onStack[e.prev] = true
			rev = append(rev, e)
			walk(sp.states[e.prev])
			rev = rev[:len(rev)-1]
			delete(onStack, e.prev)
			if len(out) >= maxPaths || steps > maxSteps {
				return
			}
		}
	}
	walk(ns)
	sc.rev = rev
	return out
}

// isSequenceValid is Procedure isSequenceValid of Figure 9, in the
// efficient formulation of §4.2: rather than loading a simulator, events
// are validated by integer comparisons over message fingerprints. A local
// event is always enabled; a network event is enabled when the fingerprint
// of its required message is present in the set net of generated (and not
// yet consumed) message fingerprints. Executing an event consumes its
// required message and adds the fingerprints of the messages it generated.
// The greedy strategy is complete: it does not matter which enabled event
// runs next, since the order demanded by the per-node sequences is enforced
// by only ever consuming messages that were already generated. The schedule
// is built only for a sequence that validates — one in thousands. seqs[k] is
// a path of combo[k], whose space holds the edges' generated messages.
func (c *checker) isSequenceValid(sc *soundScratch, combo []*nodeState, seqs [][]pred) (bool, trace.Schedule) {
	if sc.net == nil {
		sc.net = make(map[codec.Fingerprint]int, len(c.initNetCount)+8)
	}
	net := sc.net
	clear(net)
	maps.Copy(net, c.initNetCount)
	pos := grow(sc.pos, len(seqs))
	clear(pos)
	order := sc.order[:0]

	for {
		progressed := false
		for k := range seqs {
			sp := c.spaces[combo[k].node]
			for pos[k] < len(seqs[k]) {
				e := &seqs[k][pos[k]]
				if e.kind == model.NetworkEvent {
					if net[e.msgFP] <= 0 {
						break
					}
					net[e.msgFP]--
				}
				for _, g := range sp.generated(e) {
					net[g]++
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
	sc.pos, sc.order = pos, order
	for k := range seqs {
		if pos[k] != len(seqs[k]) {
			return false, nil
		}
	}
	sched := make(trace.Schedule, len(order))
	clear(pos)
	for i, k := range order {
		sched[i] = c.event(combo[k].node, &seqs[k][pos[k]])
		pos[k]++
	}
	return true, sched
}
