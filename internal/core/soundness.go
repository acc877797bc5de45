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
// into the tally rather than the result stats directly, so speculative
// confirmations can run on worker goroutines and merge their counts at the
// canonical point.
func (c *checker) isStateSound(combo []*nodeState, pathCap int, budget *int, tally *soundTally) (bool, trace.Schedule) {
	paths := make([][][]pred, len(combo))
	for k, ns := range combo {
		paths[k] = c.enumeratePathsCapped(ns, pathCap)
		if len(paths[k]) == 0 {
			// No acyclic predecessor path within caps: cannot validate.
			return false, nil
		}
	}
	// The odometer over the per-node path choices — capped by the sequence
	// budget — lives in reduce.go's searchSequences, which applies the
	// partial-order reduction when enabled.
	return c.searchSequences(paths, budget, tally)
}

// creationPath returns (memoized) the chain of first predecessor edges from
// the node's start state to ns — the path along which ns was discovered.
// The chain is acyclic by construction: a creation edge always points to an
// earlier-created state.
//
// Concurrency contract: the walk reads ancestors but memoizes ONLY ns
// itself (ancestors' creation/creationDone are never touched), so parallel
// precomputation stages — the witness prep fanout, speculative confirmBatch
// jobs — may call it concurrently as long as each goroutine passes distinct
// states. flowOf (index.go) follows the same contract.
func creationPath(ns *nodeState) []pred {
	if ns.creationDone {
		return ns.creation
	}
	var rev []pred
	for cur := ns; cur.seq != 0; cur = cur.preds[0].prev {
		rev = append(rev, cur.preds[0])
	}
	path := make([]pred, len(rev))
	for i := range rev {
		path[i] = rev[len(rev)-1-i]
	}
	ns.creation = path
	ns.creationDone = true
	return path
}

// enumeratePathsCapped lists event sequences (as predecessor-edge slices
// ordered start→state) that lead from the node's start state to ns. Following
// the paper's simplification, self-referencing edges are ignored and, more
// generally, a backward walk never revisits a state already on its stack;
// the enumeration is capped at maxPaths paths.
func (c *checker) enumeratePathsCapped(ns *nodeState, maxPaths int) [][]pred {
	var out [][]pred
	var rev []pred // edges from ns backward
	onStack := map[*nodeState]bool{ns: true}

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
			path := make([]pred, len(rev))
			for i := range rev {
				path[i] = rev[len(rev)-1-i]
			}
			out = append(out, path)
			return
		}
		for i := range cur.preds {
			e := cur.preds[i]
			if e.prev == nil || onStack[e.prev] {
				continue
			}
			onStack[e.prev] = true
			rev = append(rev, e)
			walk(e.prev)
			rev = rev[:len(rev)-1]
			delete(onStack, e.prev)
			if len(out) >= maxPaths || steps > maxSteps {
				return
			}
		}
	}
	walk(ns)
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
// by only ever consuming messages that were already generated.
//
// Besides the verdict and the schedule it returns the final message pool
// (the generated-and-unconsumed fingerprint counts after the whole schedule
// ran); the partial-order reduction appends detachable members' paths
// against it (appendValid in reduce.go).
func (c *checker) isSequenceValid(seqs [][]pred) (bool, trace.Schedule, map[codec.Fingerprint]int) {
	net := make(map[codec.Fingerprint]int, len(c.initialNet)+8)
	for _, fp := range c.initialNet {
		net[fp]++
	}
	idx := make([]int, len(seqs))
	var order trace.Schedule

	for {
		progressed := false
		for k := range seqs {
			for idx[k] < len(seqs[k]) {
				e := seqs[k][idx[k]]
				if e.kind == model.NetworkEvent {
					if net[e.msgFP] <= 0 {
						break
					}
					net[e.msgFP]--
				}
				for _, g := range e.generated {
					net[g]++
				}
				order = append(order, e.event)
				idx[k]++
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
	for k := range seqs {
		if idx[k] != len(seqs[k]) {
			return false, nil, nil
		}
	}
	return true, order, net
}
