package core

import (
	"math/rand"
	"sync"
	"testing"

	"lmc/internal/codec"
	"lmc/internal/model"
)

// Tests for the predecessor-path enumeration (soundness.go) on the graph
// shapes the exploration loop can actually produce: addPred back edges that
// make the predecessor graph cyclic, self-referencing edges, dense DAGs that
// exhaust the path and step caps, and the memoization contract of
// creationPath/flowOf under concurrent witness searches.

// chainState extends sp with one state whose creation edge comes from parent.
func chainState(sp *space, parent *nodeState, fp codec.Fingerprint) *nodeState {
	ns := &nodeState{
		node:  parent.node,
		fp:    fp,
		depth: parent.depth + 1,
		preds: []pred{{prev: parent, kind: model.InternalEvent}},
		gen:   parent.gen,
	}
	sp.add(ns)
	return ns
}

// TestEnumeratePathsCyclicGraph: an addPred back edge makes the predecessor
// graph cyclic (s1 → s2 → s1); the backward walk must terminate and return
// only acyclic paths.
func TestEnumeratePathsCyclicGraph(t *testing.T) {
	sp := newSpace()
	s0 := &nodeState{fp: 1}
	sp.add(s0)
	s1 := chainState(sp, s0, 2)
	s2 := chainState(sp, s1, 3)
	// Back edge recorded later by addPred: s1 is (also) reachable from s2.
	s1.preds = append(s1.preds, pred{prev: s2, kind: model.InternalEvent})
	// Self-referencing edge, which the paper's simplification ignores.
	s2.preds = append(s2.preds, pred{prev: s2, kind: model.InternalEvent})

	c := &checker{}
	paths := c.enumeratePathsCapped(s2, maxPathsPerNode)
	if len(paths) != 1 {
		t.Fatalf("expected exactly the creation path, got %d paths", len(paths))
	}
	p := paths[0]
	if len(p) != 2 || p[0].prev != s0 || p[1].prev != s1 {
		t.Fatalf("path is not start→s1→s2: %+v", p)
	}
	// And from the middle of the cycle: s1's back edge leads to s2, whose
	// only non-cyclic predecessor is s1 itself (on stack) or its self edge —
	// so only the direct creation path survives.
	paths = c.enumeratePathsCapped(s1, maxPathsPerNode)
	if len(paths) != 1 || len(paths[0]) != 1 || paths[0][0].prev != s0 {
		t.Fatalf("cycle leaked into s1's paths: %+v", paths)
	}
}

// ladder builds a depth-level graph where every level has `width` parallel
// predecessor edges to the previous level's state, giving width^depth
// distinct backward paths.
func ladder(depth, width int) *nodeState {
	sp := newSpace()
	cur := &nodeState{fp: 1}
	sp.add(cur)
	for d := 1; d <= depth; d++ {
		next := &nodeState{
			fp:    codec.Fingerprint(1 + d),
			depth: d,
			preds: []pred{{prev: cur, kind: model.InternalEvent}},
		}
		for w := 1; w < width; w++ {
			next.preds = append(next.preds, pred{prev: cur, kind: model.NetworkEvent,
				msgFP: codec.Fingerprint(0x100*d + w)})
		}
		sp.add(next)
		cur = next
	}
	return cur
}

// TestEnumeratePathsCap: the enumeration stops exactly at the configured
// path cap on a DAG with more paths than the cap.
func TestEnumeratePathsCap(t *testing.T) {
	tip := ladder(6, 2) // 64 distinct paths
	c := &checker{}
	if got := len(c.enumeratePathsCapped(tip, 16)); got != 16 {
		t.Fatalf("path cap 16 returned %d paths", got)
	}
	if got := len(c.enumeratePathsCapped(tip, 10)); got != 10 {
		t.Fatalf("explicit cap 10 returned %d paths", got)
	}
	if got := len(c.enumeratePathsCapped(tip, 100)); got != 64 {
		t.Fatalf("uncapped ladder should have 64 paths, got %d", got)
	}
}

// TestEnumeratePathsStepCap: with the path cap effectively unbounded, the
// step cap still bounds the walk on a DAG with 2^16 paths — the enumeration
// terminates with a nonempty, truncated result.
func TestEnumeratePathsStepCap(t *testing.T) {
	tip := ladder(16, 2) // 65536 distinct paths, far beyond maxSteps
	c := &checker{}
	paths := c.enumeratePathsCapped(tip, 1<<30)
	if len(paths) == 0 {
		t.Fatal("step cap returned no paths at all")
	}
	if len(paths) >= 1<<16 {
		t.Fatalf("step cap did not truncate: %d paths", len(paths))
	}
	for _, p := range paths {
		if len(p) != 16 {
			t.Fatalf("truncated enumeration returned a malformed path of length %d", len(p))
		}
	}
}

// TestCreationPathMemoConcurrent exercises the documented concurrency
// contract: concurrent creationPath/flowOf calls on DISTINCT states are safe
// (each memoizes only its own state while reading shared ancestors). Run
// under -race this is the regression test for the candidate-prep fanout.
func TestCreationPathMemoConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	universe := testUniverse(8)
	sp := buildRandomSpace(rng, 0, 150, universe, false)

	var wg sync.WaitGroup
	for _, ns := range sp.states {
		wg.Add(1)
		go func(ns *nodeState) {
			defer wg.Done()
			creationPath(ns)
			flowOf(ns)
		}(ns)
	}
	wg.Wait()

	for _, ns := range sp.states {
		if !ns.creationDone || !ns.flowDone {
			t.Fatalf("seq %d: memo not recorded", ns.seq)
		}
		if got := len(creationPath(ns)); got != ns.depth {
			t.Fatalf("seq %d: creation path length %d, depth %d", ns.seq, got, ns.depth)
		}
		// The memoized flow must equal a fresh recount of the path.
		want := make(map[codec.Fingerprint]int)
		for _, e := range ns.creation {
			if e.kind == model.NetworkEvent {
				want[e.msgFP]++
			}
			for _, g := range e.generated {
				want[g]--
			}
		}
		for _, fe := range ns.flow {
			if want[fe.fp] != fe.n {
				t.Fatalf("seq %d fp %#x: memo %d recount %d", ns.seq, fe.fp, fe.n, want[fe.fp])
			}
			delete(want, fe.fp)
		}
		for fp, n := range want {
			if n != 0 {
				t.Fatalf("seq %d: memo missing fp %#x (recount %d)", ns.seq, fp, n)
			}
		}
	}
}
