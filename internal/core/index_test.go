package core

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"lmc/internal/codec"
	"lmc/internal/model"
)

// Tests for the incremental index layer (index.go): the producer index and
// flow memos are differentially checked against the definitional scans they
// replaced, over randomized synthetic predecessor graphs.

// testUniverse is a small fingerprint universe; keeping it small forces
// supply/demand collisions so the multiset arithmetic is actually exercised.
func testUniverse(n int) []codec.Fingerprint {
	u := make([]codec.Fingerprint, n)
	for i := range u {
		u[i] = codec.Fingerprint(0x1000 + i)
	}
	return u
}

// buildRandomSpace grows a synthetic visited list the way the exploration
// loop does: a start state at seq 0, then states each reached by one creation
// edge from a random earlier state, consuming at most one message and
// generating a random subset of the universe. When withFlows is set, roughly
// half the states carry a discovery-time flow memo built incrementally from
// the parent's memo (the addNext path); the rest leave flowDone unset and
// exercise the lazy creation-path fallback.
func buildRandomSpace(rng *rand.Rand, node model.NodeID, nStates int, universe []codec.Fingerprint, withFlows bool) *space {
	sp := newSpace()
	sp.add(&nodeState{node: node, fp: codec.Fingerprint(rng.Uint64())})
	scratch := make([]flowEntry, 0, len(universe)+1)
	for len(sp.states) < nStates {
		parent := sp.states[rng.Intn(len(sp.states))]
		kind := model.InternalEvent
		var consumed codec.Fingerprint
		if rng.Intn(2) == 0 {
			kind = model.NetworkEvent
			consumed = universe[rng.Intn(len(universe))]
		}
		var gen []codec.Fingerprint
		for _, fp := range universe {
			if rng.Intn(5) == 0 {
				gen = append(gen, fp)
			}
		}
		edge := pred{prev: parent, kind: kind, msgFP: consumed, generated: gen}
		ns := &nodeState{
			node:  node,
			fp:    codec.Fingerprint(rng.Uint64()),
			depth: parent.depth + 1,
			preds: []pred{edge},
			gen:   parent.gen,
		}
		if len(gen) > 0 {
			ns.gen = &genNode{parent: parent.gen, fps: gen}
		}
		if withFlows && rng.Intn(2) == 0 {
			ns.flow = mergeFlows(flowOf(parent), edgeFlow(&edge, scratch))
			ns.flowDone = true
		}
		sp.add(ns)
	}
	return sp
}

// TestProducerIndexMatchesGenScan checks the index.go lemma directly:
// producerBefore(fp, lim) must agree with scanning states[:lim] for a gen
// chain containing fp, for every fingerprint and every view limit.
func TestProducerIndexMatchesGenScan(t *testing.T) {
	universe := testUniverse(12)
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sp := buildRandomSpace(rng, 0, 40, universe, false)
		for _, fp := range universe {
			for lim := 0; lim <= len(sp.states); lim++ {
				want := false
				for _, s := range sp.states[:lim] {
					if s.gen.contains(fp) {
						want = true
						break
					}
				}
				if got := sp.producerBefore(fp, lim); got != want {
					t.Fatalf("seed %d fp %#x lim %d: producerBefore=%v genScan=%v",
						seed, fp, lim, got, want)
				}
			}
		}
	}
}

// TestProducerIndexIgnoresAddPredEdges: edges appended to an existing state
// after discovery (the addPred case) never enter gen chains, so the index
// must not see them either — indexing only the creation edge is exact.
func TestProducerIndexIgnoresAddPredEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	universe := testUniverse(8)
	sp := buildRandomSpace(rng, 0, 10, universe, false)
	ghost := codec.Fingerprint(0xdead)
	target := sp.states[5]
	target.preds = append(target.preds, pred{
		prev:      sp.states[0],
		kind:      model.InternalEvent,
		generated: []codec.Fingerprint{ghost},
	})
	if target.gen.contains(ghost) {
		t.Fatal("gen chain picked up a non-creation edge")
	}
	if sp.producerBefore(ghost, len(sp.states)) {
		t.Fatal("producer index picked up a non-creation edge")
	}
}

// TestCoveredByAnyMatchesScan checks the full coverage query — several
// completion nodes, partial and full views — against the scan it replaced.
func TestCoveredByAnyMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	universe := testUniverse(10)
	c := &checker{res: &Result{}}
	for n := 0; n < 3; n++ {
		c.spaces = append(c.spaces, buildRandomSpace(rng, model.NodeID(n), 20, universe, false))
	}
	completion := []int{0, 2}
	for trial := 0; trial < 300; trial++ {
		fp := universe[rng.Intn(len(universe))]
		full := rng.Intn(4) == 0
		view := make([]int, len(c.spaces))
		for n := range view {
			view[n] = len(c.spaces[n].states)
			if !full {
				view[n] = rng.Intn(view[n] + 1)
			}
		}
		want := false
		for _, n := range completion {
			for _, s := range c.viewStates(n, view) {
				if s.gen.contains(fp) {
					want = true
					break
				}
			}
			if want {
				break
			}
		}
		if got := c.coveredByAny(completion, fp, view); got != want {
			t.Fatalf("trial %d fp %#x view %v: coveredByAny=%v scan=%v",
				trial, fp, view, got, want)
		}
	}
	if c.res.Stats.CoverIndexHits+c.res.Stats.CoverIndexMisses != 300 {
		t.Fatalf("coverage counters uncharged: hits=%d misses=%d",
			c.res.Stats.CoverIndexHits, c.res.Stats.CoverIndexMisses)
	}
}

func sortedFPs(fps []codec.Fingerprint) []codec.Fingerprint {
	out := append([]codec.Fingerprint(nil), fps...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestPairMissingMatchesMissingOf differentially checks the flow-memo
// missing set against missingOf, the retained reference implementation, over
// randomized creation chains and seeded initial networks. Both discovery-time
// memos and the lazy fallback feed pairMissing here (withFlows randomizes
// which), so the incremental construction is validated too. Every pair of a
// seed is computed into the same buffer, as the witness search does. The
// plain spaces generate far more than they consume and nearly every pair
// misses nothing; the thirsty ones lose most of their emissions first, so
// that sets of every size follow each other — shrinking, growing, and empty
// over a stale tail, which must never show.
func TestPairMissingMatchesMissingOf(t *testing.T) {
	universe := testUniverse(6)
	for seed := int64(0); seed < 12; seed++ {
		thirsty := seed >= 6
		rng := rand.New(rand.NewSource(100 + seed))
		var net []codec.Fingerprint
		counts := make(map[codec.Fingerprint]int)
		for _, fp := range universe {
			for k := rng.Intn(3); k > 0; k-- {
				net = append(net, fp)
				counts[fp]++
			}
		}
		c := &checker{initialNet: net, initNetCount: counts, res: &Result{}}
		spA := buildRandomSpace(rng, 0, 30, universe, !thirsty)
		spB := buildRandomSpace(rng, 1, 30, universe, !thirsty)
		if thirsty {
			for _, sp := range []*space{spA, spB} {
				for _, ns := range sp.states[1:] {
					if rng.Intn(5) > 0 {
						ns.preds[0].generated = nil
					}
				}
			}
		}
		var buf []codec.Fingerprint
		sizes := make(map[int]int)
		shrank, grew := false, false
		for trial := 0; trial < 150; trial++ {
			a := spA.states[rng.Intn(len(spA.states))]
			b := spB.states[rng.Intn(len(spB.states))]
			if trial%10 == 9 {
				// Two start states miss nothing, whatever the pair before
				// them left in the buffer.
				a, b = spA.states[0], spB.states[0]
			}
			prev := len(buf)
			buf = c.pairMissing(buf, a, b)
			shrank, grew = shrank || len(buf) < prev, grew || len(buf) > prev
			sizes[len(buf)]++
			if !sort.SliceIsSorted(buf, func(i, j int) bool { return buf[i] < buf[j] }) {
				t.Fatalf("seed %d trial %d: missingFromFlows output not ascending: %v",
					seed, trial, buf)
			}
			want := sortedFPs(c.missingOf(a, b))
			if fresh := c.pairMissing(nil, a, b); !slices.Equal(buf, want) || !slices.Equal(fresh, want) {
				t.Fatalf("seed %d trial %d: pairMissing reused=%v fresh=%v missingOf=%v",
					seed, trial, buf, fresh, want)
			}
		}
		if thirsty && (sizes[0] == 0 || len(sizes) < 3 || !shrank || !grew) {
			t.Fatalf("seed %d: buffer reuse not exercised: sizes %v shrank=%v grew=%v",
				seed, sizes, shrank, grew)
		}
	}
}

// TestFlowOfMatchesCreationPath checks the lazy flow fallback (and any
// discovery-time memo) against a direct recount of the creation path.
func TestFlowOfMatchesCreationPath(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	universe := testUniverse(6)
	sp := buildRandomSpace(rng, 0, 30, universe, true)
	for _, ns := range sp.states {
		want := make(map[codec.Fingerprint]int)
		for _, e := range creationPath(ns) {
			if e.kind == model.NetworkEvent {
				want[e.msgFP]++
			}
			for _, g := range e.generated {
				want[g]--
			}
		}
		got := flowOf(ns)
		nonzero := 0
		for _, n := range want {
			if n != 0 {
				nonzero++
			}
		}
		if len(got) != nonzero {
			t.Fatalf("seq %d: flow has %d entries, path recount has %d nonzero",
				ns.seq, len(got), nonzero)
		}
		for i, fe := range got {
			if fe.n == 0 {
				t.Fatalf("seq %d: zero entry %#x survived", ns.seq, fe.fp)
			}
			if want[fe.fp] != fe.n {
				t.Fatalf("seq %d fp %#x: flow=%d recount=%d", ns.seq, fe.fp, fe.n, want[fe.fp])
			}
			if i > 0 && got[i-1].fp >= fe.fp {
				t.Fatalf("seq %d: flow not strictly ascending", ns.seq)
			}
		}
	}
}
