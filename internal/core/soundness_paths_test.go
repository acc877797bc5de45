package core

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"lmc/internal/codec"
	"lmc/internal/model"
	"lmc/internal/netstate"
	"lmc/internal/trace"
)

// Tests for the predecessor-path enumeration (soundness.go) on the graph
// shapes the exploration loop can actually produce: addPred back edges that
// make the predecessor graph cyclic, self-referencing edges, dense DAGs that
// exhaust the path and step caps, and the soundness search's reused scratch
// against a fresh one.

// chainState extends sp with one state whose creation edge comes from parent.
func chainState(sp *space, parent *nodeState, fp codec.Fingerprint) *nodeState {
	ns := link(sp, &nodeState{node: parent.node, fp: fp, depth: parent.depth + 1}, parent, pred{kind: model.InternalEvent})
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
	link(sp, s1, s2, pred{kind: model.InternalEvent})
	// Self-referencing edge, which the paper's simplification ignores.
	link(sp, s2, s2, pred{kind: model.InternalEvent})

	paths := sp.enumeratePathsCapped(new(soundScratch), s2, maxPathsPerNode, nil)
	if len(paths) != 1 {
		t.Fatalf("expected exactly the creation path, got %d paths", len(paths))
	}
	p := paths[0]
	if len(p) != 2 || int(p[0].prev) != s0.seq || int(p[1].prev) != s1.seq {
		t.Fatalf("path is not start→s1→s2: %+v", p)
	}
	// And from the middle of the cycle: s1's back edge leads to s2, whose
	// only non-cyclic predecessor is s1 itself (on stack) or its self edge —
	// so only the direct creation path survives.
	paths = sp.enumeratePathsCapped(new(soundScratch), s1, maxPathsPerNode, nil)
	if len(paths) != 1 || len(paths[0]) != 1 || int(paths[0][0].prev) != s0.seq {
		t.Fatalf("cycle leaked into s1's paths: %+v", paths)
	}
	// And from past the cycle: s3's walk meets s1 ← s2 with s2 on its stack
	// below s3, so again only the creation path survives.
	s3 := chainState(sp, s2, 4)
	paths = sp.enumeratePathsCapped(new(soundScratch), s3, maxPathsPerNode, nil)
	if len(paths) != 1 || len(paths[0]) != 3 {
		t.Fatalf("cycle leaked into s3's paths: %d paths, the first %+v", len(paths), paths[0])
	}
}

// ladder builds a depth-level graph where every level has `width` parallel
// predecessor edges to the previous level's state, giving width^depth
// distinct backward paths. It returns the space and its last state.
func ladder(depth, width int) (*space, *nodeState) {
	sp := newSpace()
	cur := &nodeState{fp: 1}
	sp.add(cur)
	for d := 1; d <= depth; d++ {
		next := link(sp, &nodeState{fp: codec.Fingerprint(1 + d), depth: d}, cur, pred{kind: model.InternalEvent})
		for w := 1; w < width; w++ {
			link(sp, next, cur, pred{kind: model.NetworkEvent, msgFP: codec.Fingerprint(0x100*d + w)})
		}
		sp.add(next)
		cur = next
	}
	return sp, cur
}

// TestEnumeratePathsCap: the enumeration stops exactly at the configured
// path cap on a DAG with more paths than the cap.
func TestEnumeratePathsCap(t *testing.T) {
	sp, tip := ladder(6, 2) // 64 distinct paths
	if got := len(sp.enumeratePathsCapped(new(soundScratch), tip, 16, nil)); got != 16 {
		t.Fatalf("path cap 16 returned %d paths", got)
	}
	if got := len(sp.enumeratePathsCapped(new(soundScratch), tip, 10, nil)); got != 10 {
		t.Fatalf("explicit cap 10 returned %d paths", got)
	}
	if got := len(sp.enumeratePathsCapped(new(soundScratch), tip, 100, nil)); got != 64 {
		t.Fatalf("uncapped ladder should have 64 paths, got %d", got)
	}
}

// TestEnumeratePathsStepCap: with the path cap effectively unbounded, the
// step cap still bounds the walk on a DAG with 2^16 paths — the enumeration
// terminates with a nonempty, truncated result.
func TestEnumeratePathsStepCap(t *testing.T) {
	sp, tip := ladder(16, 2) // 65536 distinct paths, far beyond maxSteps
	paths := sp.enumeratePathsCapped(new(soundScratch), tip, 1<<30, nil)
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

// samePaths compares two path lists edge by edge (identity of the
// predecessor, kind, consumed message).
func samePaths(a, b [][]pred) bool {
	return slices.EqualFunc(a, b, func(p, q []pred) bool {
		return slices.EqualFunc(p, q, func(e, f pred) bool {
			return e.prev == f.prev && e.kind == f.kind && e.msgFP == f.msgFP
		})
	})
}

// TestEnumeratePathsScratchMatchesFresh drives one soundScratch through the
// shapes above, back to back — a cap-truncated walk (which returns from
// under its stack) before a complete one, small results after large — and
// holds every result to a fresh scratch's. Paths carved before the arena was
// replaced must stay intact: isStateSound holds every member's at once.
func TestEnumeratePathsScratchMatchesFresh(t *testing.T) {
	sp := newSpace()
	s0 := &nodeState{fp: 1}
	sp.add(s0)
	s1 := chainState(sp, s0, 2)
	s2 := chainState(sp, s1, 3)
	link(sp, s1, s2, pred{kind: model.InternalEvent})
	link(sp, s2, s2, pred{kind: model.InternalEvent})

	type shape struct {
		sp  *space
		ns  *nodeState
		cap int
	}
	ladderShape := func(depth, cap int) shape {
		lsp, tip := ladder(depth, 2)
		return shape{lsp, tip, cap}
	}
	shapes := []shape{
		{sp, s2, maxPathsPerNode}, ladderShape(16, 1<<30), {sp, s1, maxPathsPerNode},
		ladderShape(6, 10), ladderShape(6, 100), ladderShape(16, 3), {sp, s2, 1},
	}
	sc := new(soundScratch)
	var held [][][]pred
	for round := 0; round < 2; round++ {
		for i, sh := range shapes {
			got := sh.sp.enumeratePathsCapped(sc, sh.ns, sh.cap, nil)
			want := sh.sp.enumeratePathsCapped(new(soundScratch), sh.ns, sh.cap, nil)
			if !samePaths(got, want) {
				t.Fatalf("round %d shape %d: reused scratch returned %d paths, fresh %d (or different edges)",
					round, i, len(got), len(want))
			}
			held = append(held, got)
		}
		// Nothing reset the arena: every earlier result is still whole.
		for i, sh := range shapes {
			if want := sh.sp.enumeratePathsCapped(new(soundScratch), sh.ns, sh.cap, nil); !samePaths(held[i], want) {
				t.Fatalf("round %d: shape %d's paths were overwritten by a later enumeration", round, i)
			}
		}
		held = held[:0]
		sc.arena = sc.arena[:0] // as isStateSound does per combination
	}
}

// TestSoundScratchMatchesFresh holds the whole soundness search on a reused
// scratch to the search on a fresh one — verdict, schedule, final pool,
// budget and sequence count — over random combinations, most of which fail; a success
// must also come out right immediately after a failure. The combinations are
// then searched again from several goroutines at once, each with a scratch
// of its own, the way confirmBatch's workers run: under -race this is the
// check that a search writes nothing but its scratch.
func TestSoundScratchMatchesFresh(t *testing.T) {
	universe := testUniverse(5)
	rng := rand.New(rand.NewSource(21))
	// The synthetic edges all point at slot 0 — I+ entry 0, or the only
	// action stepMachine offers — so the schedule tells whose event ran when
	// by its node, which c.event takes from the combination.
	c := &checker{res: &Result{}, initNetCount: map[codec.Fingerprint]int{universe[0]: 2, universe[3]: 1},
		m: stepMachine{kind: "idle"}, net: netstate.NewSharedNet(0)}
	c.net.Add(stepEvent{Kind: "idle"})
	spaces := make([]*space, 3)
	for n := range spaces {
		spaces[n] = buildRandomSpace(rng, model.NodeID(n), 25, universe)
		for _, ns := range spaces[n].states {
			// A second route to some states, so the odometer has something to turn.
			if ns.seq > 1 && rng.Intn(3) == 0 {
				link(spaces[n], ns, spaces[n].states[rng.Intn(ns.seq)], pred{kind: model.InternalEvent})
			}
		}
	}
	c.spaces = spaces

	type outcome struct {
		ok     bool
		sched  trace.Schedule
		budget int
		seqs   int
	}
	search := func(sc *soundScratch, combo []*nodeState) outcome {
		o := outcome{budget: 64}
		o.ok, o.sched = c.isStateSound(combo, witnessPathCap, &o.budget, &o.seqs, sc)
		return o
	}

	var combos [][]*nodeState
	var want []outcome
	reused := new(soundScratch)
	sound, afterFailure := 0, 0
	for trial := 0; trial < 400; trial++ {
		combo := make([]*nodeState, len(spaces))
		for n, sp := range spaces {
			combo[n] = sp.states[rng.Intn(len(sp.states))]
		}
		got, fresh := search(reused, combo), search(new(soundScratch), combo)
		if !reflect.DeepEqual(got, fresh) {
			t.Fatalf("trial %d: reused scratch %+v, fresh scratch %+v", trial, got, fresh)
		}
		if got.ok {
			sound++
			if trial > 0 && !want[trial-1].ok {
				afterFailure++
			}
			// The counts the validating sequence left behind, once more on
			// each: the creation paths alone, densified and validated.
			validate := func(sc *soundScratch) (bool, trace.Schedule, []int32) {
				sc.paths = grow(sc.paths, len(combo))
				for n, ns := range combo {
					sc.paths[n] = [][]pred{creationPath(spaces[n], ns)}
				}
				c.densify(sc, combo)
				idx := make([]int, len(combo))
				if !sc.sequenceValid(idx) {
					return false, nil, sc.count
				}
				return true, c.schedule(sc, combo, idx), sc.count
			}
			ok1, sched1, count1 := validate(reused)
			ok2, sched2, count2 := validate(new(soundScratch))
			if ok1 != ok2 || !reflect.DeepEqual(sched1, sched2) || !slices.Equal(count1, count2) {
				t.Fatalf("trial %d: sequenceValid reused (%v, %v, %v), fresh (%v, %v, %v)",
					trial, ok1, sched1, count1, ok2, sched2, count2)
			}
		}
		combos, want = append(combos, combo), append(want, got)
	}
	if sound == 0 || sound == len(combos) || afterFailure == 0 {
		t.Fatalf("%d of %d combinations sound, %d right after a failure: the mix is not exercised",
			sound, len(combos), afterFailure)
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := new(soundScratch)
			for i, combo := range combos {
				if got := search(sc, combo); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("concurrent search of combination %d: %+v, want %+v", i, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestAddPredIgnoresSelfEdges: an edge from a state to itself is not
// recorded and does not count towards maxPredecessors. A state offered 63
// distinct self-edges keeps none of them and still admits maxPredecessors
// edges from another state — the same event fingerprints among them — and
// no more; a second copy of a message that exploration delivers to the same
// state (DupLimit 1) runs the handler again and records nothing either.
func TestAddPredIgnoresSelfEdges(t *testing.T) {
	sp := newSpace()
	c := &checker{spaces: []*space{sp}}
	other, ns := &nodeState{fp: 2}, &nodeState{fp: 1}
	sp.add(other)
	sp.add(ns)
	for i := 1; i < maxPredecessors; i++ {
		c.addPred(ns, pred{prev: int32(ns.seq), kind: model.NetworkEvent, eventFP: codec.Fingerprint(i)}, nil)
	}
	if len(ns.preds) != 0 {
		t.Fatalf("%d predecessor edges after %d self-edges offered", len(ns.preds), maxPredecessors-1)
	}
	for i := 1; i <= maxPredecessors+1; i++ {
		c.addPred(ns, pred{prev: int32(other.seq), kind: model.NetworkEvent, eventFP: codec.Fingerprint(i)}, nil)
	}
	c.addPred(ns, pred{prev: int32(ns.seq), kind: model.NetworkEvent, eventFP: 1000}, nil)
	if len(ns.preds) != maxPredecessors {
		t.Fatalf("%d predecessor edges kept of %d offered from another state, want %d",
			len(ns.preds), maxPredecessors+1, maxPredecessors)
	}
	for i, p := range ns.preds {
		if int(p.prev) != other.seq || p.eventFP != codec.Fingerprint(i+1) {
			t.Fatalf("predecessor edge %d is %+v, want the edge from state %d with event %d", i, p, other.seq, i+1)
		}
	}

	calls := 0
	m := stepMachine{kind: "idle", calls: &calls}
	ck := newChecker(context.Background(), m, model.InitialSystem(m),
		Options{DisableSystemStates: true, Workers: -1, DupLimit: 1})
	ck.beginPass()
	s := ck.spaces[0].states[0]
	r := &nodeRun{c: ck, node: 0}
	for dup := 0; dup < 2; dup++ {
		e := ck.net.Add(stepEvent{Kind: "idle"})
		if e == nil {
			t.Fatalf("copy %d of the message was not admitted under DupLimit 1", dup)
		}
		r.deliver(e, s, dup)
	}
	if calls != 2 || len(s.preds) != 0 {
		t.Fatalf("two copies delivered: %d handler calls and %d predecessor edges, want 2 and 0", calls, len(s.preds))
	}
}

// TestEnumeratePathsIgnoresSelfEdges: the backward walk never followed an
// edge from a state to itself (its source is on the stack by construction),
// so not recording those edges changes no enumeration: the graphs above give
// the same paths with self-edges offered on every state and with none.
func TestEnumeratePathsIgnoresSelfEdges(t *testing.T) {
	build := func(self bool) *space {
		sp := newSpace()
		c := &checker{spaces: []*space{sp}}
		s0 := &nodeState{fp: 1}
		sp.add(s0)
		s1 := chainState(sp, s0, 2)
		s2 := chainState(sp, s1, 3)
		s3 := chainState(sp, s1, 4)
		c.addPred(s1, pred{prev: int32(s2.seq), kind: model.InternalEvent, eventFP: 7}, nil) // back edge
		c.addPred(s3, pred{prev: int32(s2.seq), kind: model.NetworkEvent, eventFP: 8, msgFP: 9}, nil)
		c.addPred(s2, pred{prev: int32(s3.seq), kind: model.InternalEvent, eventFP: 10}, nil)
		if self {
			for i, ns := range sp.states {
				c.addPred(ns, pred{prev: int32(ns.seq), kind: model.InternalEvent, eventFP: codec.Fingerprint(100 + i)}, nil)
				c.addPred(ns, pred{prev: int32(ns.seq), kind: model.NetworkEvent, eventFP: codec.Fingerprint(200 + i), msgFP: 5}, nil)
			}
		}
		return sp
	}
	with, without := build(true), build(false)
	// Compare paths by the source state's fingerprint.
	render := func(sp *space, paths [][]pred) [][]codec.Fingerprint {
		out := make([][]codec.Fingerprint, len(paths))
		for i, p := range paths {
			for _, e := range p {
				out[i] = append(out[i], sp.states[e.prev].fp, e.eventFP, e.msgFP)
			}
		}
		return out
	}
	for i := range with.states {
		if len(with.states[i].preds) != len(without.states[i].preds) {
			t.Fatalf("state %d: %d and %d predecessor edges", i, len(with.states[i].preds), len(without.states[i].preds))
		}
		a := render(with, with.enumeratePathsCapped(new(soundScratch), with.states[i], maxPathsPerNode, nil))
		b := render(without, without.enumeratePathsCapped(new(soundScratch), without.states[i], maxPathsPerNode, nil))
		if len(a) == 0 || !reflect.DeepEqual(a, b) {
			t.Fatalf("state %d: paths with self-edges %v, without %v", i, a, b)
		}
	}
}
