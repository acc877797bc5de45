package core

import (
	"context"
	"fmt"
	"maps"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"lmc/internal/codec"
	"lmc/internal/model"
	"lmc/internal/protocols/paxos"
)

// Tests for the index layer (index.go): the producer index and the flow
// memos are differentially checked against the definitional walks of the
// creation chain (creationPath, missingOf — the oracles, below), over
// randomized synthetic predecessor graphs.

// link gives ns an edge from prev, both states of sp, that generated gen; e
// supplies the edge's other fields. A state's first link is its creation
// edge, so it comes before sp.add(ns). It returns ns.
func link(sp *space, ns, prev *nodeState, e pred, gen ...codec.Fingerprint) *nodeState {
	e.prev = int32(prev.seq)
	sp.keep(&e, gen)
	ns.preds = append(ns.preds, e)
	return ns
}

// creationPath is the creation chain of ns, one of sp's states, as a slice,
// start state first: the definitional walk every derived structure is held
// to.
func creationPath(sp *space, ns *nodeState) []pred {
	var path []pred
	for cur := ns; cur.seq != 0; cur = sp.states[cur.preds[0].prev] {
		path = append(path, cur.preds[0])
	}
	slices.Reverse(path)
	return path
}

// missingOf computes the missing set of any member set of the checker's
// spaces directly from the creation paths: the reference msgIDs.missing is
// compared against.
func (c *checker) missingOf(states ...*nodeState) []codec.Fingerprint {
	supply := maps.Clone(c.initNetCount)
	if supply == nil {
		supply = make(map[codec.Fingerprint]int)
	}
	var need []codec.Fingerprint
	for _, ns := range states {
		sp := c.spaces[ns.node]
		for _, e := range creationPath(sp, ns) {
			if e.kind == model.NetworkEvent {
				need = append(need, e.msgFP)
			}
			for _, g := range sp.generated(&e) {
				supply[g]++
			}
		}
	}
	var missing []codec.Fingerprint
	seen := make(map[codec.Fingerprint]bool)
	for _, fp := range need {
		if supply[fp] > 0 {
			supply[fp]--
			continue
		}
		if !seen[fp] {
			seen[fp] = true
			missing = append(missing, fp)
		}
	}
	return missing
}

// chainFlow is the flow memo by the definitional walk: the nonzero net
// consumed-minus-generated count per fingerprint along the creation path of
// ns, one of sp's states.
func chainFlow(sp *space, ns *nodeState) map[codec.Fingerprint]int {
	flow := make(map[codec.Fingerprint]int)
	for _, e := range creationPath(sp, ns) {
		if e.kind == model.NetworkEvent {
			flow[e.msgFP]++
		}
		for _, g := range sp.generated(&e) {
			flow[g]--
		}
	}
	maps.DeleteFunc(flow, func(_ codec.Fingerprint, n int) bool { return n == 0 })
	return flow
}

// memoFlow decodes a flow memo back to nonzero counts per fingerprint — the
// form chainFlow returns — checking its shape on the way: pos and neg
// disjoint and within the id table, wide ascending with every count at
// least 2 away from 0 and on the side its bit says. wides reports how many
// entries wide holds.
func memoFlow(ids *msgIDs, m *flowMemo) (flow map[codec.Fingerprint]int, wides int, err error) {
	if len(m.pos) != len(m.neg) || len(m.pos) > (len(ids.fps)+63)/64 {
		return nil, 0, fmt.Errorf("pos/neg of %d/%d words over %d ids", len(m.pos), len(m.neg), len(ids.fps))
	}
	for i := range m.wide {
		w := m.wide[i]
		if (i > 0 && m.wide[i-1].id >= w.id) || (w.n > -2 && w.n < 2) ||
			(w.n > 0) != m.pos.has(w.id) || (w.n < 0) != m.neg.has(w.id) {
			return nil, 0, fmt.Errorf("wide entry %d of %v misshapen", i, m.wide)
		}
	}
	set := 0
	for i := range m.pos {
		if m.pos[i]&m.neg[i] != 0 {
			return nil, 0, fmt.Errorf("word %d: pos and neg overlap", i)
		}
		set += bits.OnesCount64(m.pos[i] | m.neg[i])
	}
	flow = make(map[codec.Fingerprint]int)
	for id, fp := range ids.fps {
		if n := m.count(int32(id)); n != 0 {
			flow[fp] = n
		}
	}
	if set != len(flow) {
		return nil, 0, fmt.Errorf("%d bits set for %d ids in the table", set, len(flow))
	}
	return flow, len(m.wide), nil
}

// doubleUp makes a synthetic space's chains count past ±1, so memos carry
// wide entries: some creation edges generate one of their messages twice,
// and half the deliveries consume one of the universe's first three
// messages, so a chain consumes the same message again and again. Like the
// rest of the space's construction, it must run before any memo is built.
func doubleUp(rng *rand.Rand, sp *space, universe []codec.Fingerprint) {
	for _, ns := range sp.states[1:] {
		e := &ns.preds[0]
		if e.kind == model.NetworkEvent && rng.Intn(2) == 0 {
			e.msgFP = universe[rng.Intn(3)]
		}
		if gen := sp.generated(e); len(gen) > 0 && rng.Intn(3) == 0 {
			sp.keep(e, append(slices.Clone(gen), gen[rng.Intn(len(gen))]))
		}
	}
}

// chainEmits is creationEmits by the definitional walk.
func chainEmits(sp *space, ns *nodeState, fp codec.Fingerprint) bool {
	for _, e := range creationPath(sp, ns) {
		if slices.Contains(sp.generated(&e), fp) {
			return true
		}
	}
	return false
}

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
// generating a random subset of the universe. Like addNext, it builds no flow
// memo: flowOf does, when a test first asks.
func buildRandomSpace(rng *rand.Rand, node model.NodeID, nStates int, universe []codec.Fingerprint) *space {
	sp := newSpace()
	sp.add(&nodeState{node: node, fp: codec.Fingerprint(rng.Uint64())})
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
		sp.add(link(sp, &nodeState{node: node, fp: codec.Fingerprint(rng.Uint64()), depth: parent.depth + 1},
			parent, pred{kind: kind, msgFP: consumed}, gen...))
	}
	return sp
}

// TestProducerIndexMatchesGenScan checks the index.go lemma directly:
// producerBefore(fp, lim) must agree with scanning states[:lim] for a
// creation chain that generates fp, for every fingerprint and every view
// limit — and creationEmits, the per-state form of the same question, with
// the definitional walk.
func TestProducerIndexMatchesGenScan(t *testing.T) {
	universe := testUniverse(12)
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sp := buildRandomSpace(rng, 0, 40, universe)
		for _, fp := range universe {
			for _, s := range sp.states {
				if got, want := sp.creationEmits(s, fp), chainEmits(sp, s, fp); got != want {
					t.Fatalf("seed %d fp %#x seq %d: creationEmits=%v walk=%v", seed, fp, s.seq, got, want)
				}
			}
			for lim := 0; lim <= len(sp.states); lim++ {
				want := slices.ContainsFunc(sp.states[:lim], func(s *nodeState) bool { return chainEmits(sp, s, fp) })
				if got := sp.producerBefore(fp, lim); got != want {
					t.Fatalf("seed %d fp %#x lim %d: producerBefore=%v genScan=%v",
						seed, fp, lim, got, want)
				}
			}
		}
	}
}

// TestProducerIndexIgnoresAddPredEdges: edges appended to an existing state
// after discovery (the addPred case) are on no creation chain, so the index
// must not see them either — indexing only the creation edge is exact.
func TestProducerIndexIgnoresAddPredEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	universe := testUniverse(8)
	sp := buildRandomSpace(rng, 0, 10, universe)
	ghost := codec.Fingerprint(0xdead)
	link(sp, sp.states[5], sp.states[0], pred{kind: model.InternalEvent}, ghost)
	for _, s := range sp.states {
		if sp.creationEmits(s, ghost) {
			t.Fatalf("seq %d: creation chain picked up a non-creation edge", s.seq)
		}
	}
	if sp.producerBefore(ghost, len(sp.states)) {
		t.Fatal("producer index picked up a non-creation edge")
	}
}

// TestCoveredByAnyMatchesScan checks the full coverage query — several
// completion nodes, partial and full views — against the scan it replaced,
// asked directly and through a search's coverage memo (checker.coverage),
// which must decide feasibility the same way and charge one hit or miss per
// missing message, whether it asked the index or remembered the answer. The
// universe spans two words of a message-id set.
func TestCoveredByAnyMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	universe := testUniverse(70)
	c := &checker{res: &Result{}, msgs: newMsgIDs(nil)}
	for n := 0; n < 3; n++ {
		c.spaces = append(c.spaces, buildRandomSpace(rng, model.NodeID(n), 20, universe))
	}
	for _, fp := range universe {
		c.msgs.id(fp)
	}
	pair := &nodeState{node: 1} // a node-local search on node 1: nodes 0 and 2 complete it
	queries := 0
	for search := 0; search < 30; search++ {
		full := rng.Intn(4) == 0
		view := make([]int, len(c.spaces))
		for n := range view {
			view[n] = len(c.spaces[n].states)
			if !full {
				view[n] = rng.Intn(view[n] + 1)
			}
		}
		w := c.beginSearch(pair, 1)
		if !slices.Equal(w.nodes, []int{0, 2}) {
			t.Fatalf("completion nodes %v", w.nodes)
		}
		scan := func(fp codec.Fingerprint) bool {
			return slices.ContainsFunc(w.nodes, func(n int) bool {
				return slices.ContainsFunc(c.viewStates(n, view), func(s *nodeState) bool { return chainEmits(c.spaces[n], s, fp) })
			})
		}
		for pairs := 0; pairs < 10; pairs++ {
			w.miss = nil
			hits, misses := 0, 0
			for id, fp := range universe {
				if rng.Intn(6) > 0 {
					continue
				}
				w.miss.add(int32(id))
				covered := scan(fp)
				if got := c.coveredByAny(w.nodes, fp, view); got != covered {
					t.Fatalf("search %d fp %#x view %v: coveredByAny=%v scan=%v", search, fp, view, got, covered)
				}
				if covered {
					hits++
				} else {
					misses++
				}
			}
			queries += hits + misses
			before := c.res.Stats
			if got := c.coverage(w, view); got != (misses == 0) {
				t.Fatalf("search %d pair %d: feasible=%v with %d uncovered", search, pairs, got, misses)
			}
			if dh, dm := c.res.Stats.CoverIndexHits-before.CoverIndexHits,
				c.res.Stats.CoverIndexMisses-before.CoverIndexMisses; dh != hits || dm != misses {
				t.Fatalf("search %d pair %d: charged %d hits, %d misses; want %d, %d", search, pairs, dh, dm, hits, misses)
			}
		}
	}
	if queries < 1000 {
		t.Fatalf("only %d coverage queries: the memo is barely exercised", queries)
	}
}

func sortedFPs(fps []codec.Fingerprint) []codec.Fingerprint {
	out := append([]codec.Fingerprint(nil), fps...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestPairMissingMatchesMissingOf differentially checks msgIDs.missing
// against missingOf, the reference implementation, over randomized creation
// chains and seeded initial networks of up to two copies of a message.
// Pairs are drawn at random, so flowOf builds each memo on whatever
// ancestors earlier pairs happened to leave built. Every pair of a seed is
// computed into the same buffer, as the witness search does. The plain
// spaces generate far more than they consume and nearly every pair misses
// nothing; the thirsty ones lose most of their emissions first, so that
// sets of every size follow each other — shrinking, growing, and empty over
// a stale tail, which must never show: equal sets must be equal words, the
// completion orderings are keyed by them. The wide universe spans three
// words of a message-id set; the doubled spaces (doubleUp) count past ±1,
// the only chains that take the wide-list correction — no registry
// workload reaches it.
func TestPairMissingMatchesMissingOf(t *testing.T) {
	for _, tc := range []struct {
		name    string
		msgs    int
		doubled bool
	}{
		{"narrow", 6, false},
		{"wide", 150, false},
		{"narrow doubled", 6, true},
		{"wide doubled", 150, true},
	} {
		universe := testUniverse(tc.msgs)
		wides := 0
		for seed := int64(0); seed < 12; seed++ {
			thirsty := seed >= 6
			rng := rand.New(rand.NewSource(100 + seed))
			counts := make(map[codec.Fingerprint]int)
			for _, fp := range universe {
				for k := rng.Intn(3); k > 0; k-- {
					counts[fp]++
				}
			}
			c := &checker{initNetCount: counts, res: &Result{}, msgs: newMsgIDs(counts)}
			pairMissing := func(dst idSet, a, b *nodeState) idSet {
				return c.msgs.missing(dst, c.msgs.flowOf(c.spaces[a.node], a), c.msgs.flowOf(c.spaces[b.node], b))
			}
			spA := buildRandomSpace(rng, 0, 30, universe)
			spB := buildRandomSpace(rng, 1, 30, universe)
			c.spaces = []*space{spA, spB}
			for _, sp := range c.spaces {
				if thirsty {
					for _, ns := range sp.states[1:] {
						if rng.Intn(5) > 0 {
							ns.preds[0].genN = 0
						}
					}
				}
				if tc.doubled {
					doubleUp(rng, sp, universe)
				}
			}
			var buf idSet
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
				prev := len(c.msgs.fingerprints(nil, buf))
				buf = pairMissing(buf, a, b)
				got := sortedFPs(c.msgs.fingerprints(nil, buf))
				shrank, grew = shrank || len(got) < prev, grew || len(got) > prev
				sizes[len(got)]++
				want := sortedFPs(c.missingOf(a, b))
				fresh := pairMissing(nil, a, b)
				if !slices.Equal(got, want) || !slices.Equal(buf, fresh) {
					t.Fatalf("%s seed %d trial %d: missing reused=%v (words %x) fresh words %x, missingOf=%v",
						tc.name, seed, trial, got, buf, fresh, want)
				}
				if len(buf) > 0 && buf[len(buf)-1] == 0 {
					t.Fatalf("%s seed %d trial %d: trailing zero word in %x", tc.name, seed, trial, buf)
				}
			}
			// Doubled chains have surplus to spare and seldom miss more
			// than one message; the plain thirsty ones show every size.
			if thirsty && (sizes[0] == 0 || (len(sizes) < 3 && !tc.doubled) || !shrank || !grew) {
				t.Fatalf("%s seed %d: buffer reuse not exercised: sizes %v shrank=%v grew=%v",
					tc.name, seed, sizes, shrank, grew)
			}
			if len(c.msgs.init2) == 0 {
				t.Fatalf("%s seed %d: no message seeded twice", tc.name, seed)
			}
			for _, sp := range []*space{spA, spB} {
				for _, ns := range sp.states {
					if ns.flow != nil {
						wides += len(ns.flow.wide)
					}
				}
			}
		}
		if tc.doubled && wides == 0 {
			t.Fatalf("%s: no memo has a wide entry", tc.name)
		}
	}
}

// TestFlowOfMatchesCreationPath checks flowOf against a direct recount of the
// creation path, wide entries included. States are asked in random order:
// some memos are built over a whole unbuilt chain, some on an ancestor an
// earlier ask left built, and a second ask must hand back the first one's
// memo. A start state's memo is the shared empty one, and is not stored.
func TestFlowOfMatchesCreationPath(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	universe := testUniverse(80)
	for _, doubled := range []bool{false, true} {
		ids := newMsgIDs(nil)
		sp := buildRandomSpace(rng, 0, 30, universe)
		if doubled {
			doubleUp(rng, sp, universe)
		}
		wides := 0
		for _, i := range rng.Perm(len(sp.states)) {
			ns := sp.states[i]
			got := ids.flowOf(sp, ns)
			if ns.seq == 0 {
				if got != &noFlow || ns.flow != nil {
					t.Fatal("start state: memo is not the shared empty one")
				}
				continue
			}
			if ns.flow != got || ids.flowOf(sp, ns) != got {
				t.Fatalf("seq %d: flowOf did not keep its memo", ns.seq)
			}
			flow, w, err := memoFlow(&ids, got)
			if err != nil {
				t.Fatalf("seq %d: %v", ns.seq, err)
			}
			if want := chainFlow(sp, ns); !maps.Equal(flow, want) {
				t.Fatalf("seq %d: memo %v, path recount %v", ns.seq, flow, want)
			}
			wides += w
		}
		if doubled && wides == 0 {
			t.Fatal("doubled space: no memo has a wide entry")
		}
	}
}

// TestOrderByCoverageWalksWholeChain holds orderByCoverage to the
// definitional walk: full coverers, then partial, then the rest, discovery
// order within each. First on the shape that tells a walk of the whole
// creation chain from one that gives up early — the covering emission sits
// seven edges above the ranked state, most of them silent, one of them
// emitting something else — then on random spaces.
func TestOrderByCoverageWalksWholeChain(t *testing.T) {
	byWalk := func(sp *space, states []*nodeState, missing []codec.Fingerprint) []*nodeState {
		count := func(s *nodeState) int {
			n := 0
			for _, fp := range missing {
				if chainEmits(sp, s, fp) {
					n++
				}
			}
			return n
		}
		rank := func(s *nodeState) int { // 0 full, 1 partial, 2 none
			switch count(s) {
			case len(missing):
				return 0
			case 0:
				return 2
			}
			return 1
		}
		out := slices.Clone(states)
		slices.SortStableFunc(out, func(a, b *nodeState) int { return rank(a) - rank(b) })
		return out
	}
	seqs := func(states []*nodeState) []int {
		out := make([]int, len(states))
		for i, s := range states {
			out[i] = s.seq
		}
		return out
	}

	const x, y, z = codec.Fingerprint(0xa), codec.Fingerprint(0xb), codec.Fingerprint(0xc)
	sp := newSpace()
	grow := func(parent *nodeState, gen ...codec.Fingerprint) *nodeState {
		ns := link(sp, &nodeState{fp: codec.Fingerprint(0x100 + len(sp.states)), depth: parent.depth + 1},
			parent, pred{kind: model.InternalEvent}, gen...)
		sp.add(ns)
		return ns
	}
	s0 := &nodeState{fp: 0x100}
	sp.add(s0)
	bare := grow(grow(s0))        // emits nothing anywhere
	sx := grow(s0, x)             // emits x on its own edge
	sz := grow(grow(grow(sx)), z) // two silent edges, then one that emits something else
	deep := grow(grow(grow(sz)))  // three more silent edges: x is seven edges up
	both := grow(grow(grow(s0, y)), x)
	missing := []codec.Fingerprint{x, y}

	got := orderByCoverage(sp, sp.states, missing)
	if want := byWalk(sp, sp.states, missing); !slices.Equal(got, want) {
		t.Fatalf("order %v, want %v", seqs(got), seqs(want))
	}
	at := func(s *nodeState) int { return slices.Index(got, s) }
	if at(both) != 0 || at(deep) != at(sz)+3 || at(deep) > at(s0) || at(deep) > at(bare) {
		t.Fatalf("deep state misranked: order %v (deep is seq %d)", seqs(got), deep.seq)
	}
	if got := orderByCoverage(sp, sp.states, nil); !slices.Equal(got, sp.states) {
		t.Fatal("nothing missing must leave discovery order")
	}

	universe := testUniverse(10)
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(50 + seed))
		rsp := buildRandomSpace(rng, 0, 40, universe)
		missing := []codec.Fingerprint{universe[rng.Intn(5)], universe[5+rng.Intn(5)], universe[rng.Intn(10)]}
		if got, want := orderByCoverage(rsp, rsp.states, missing), byWalk(rsp, rsp.states, missing); !slices.Equal(got, want) {
			t.Fatalf("seed %d: order %v, want %v", seed, seqs(got), seqs(want))
		}
	}
}

// TestFlowMemosBelongToSearches pins who builds a flow memo and when: a run
// that raises no witness search builds none, and a run that raises many — on
// the worker pool, so under -race this is also the check that memos are
// written between the pool's phases, by the merge goroutine alone — leaves
// every memo it built, wide list included, equal to the recount of its
// state's creation chain.
func TestFlowMemosBelongToSearches(t *testing.T) {
	var wides int
	memos := func(m model.Machine, start model.SystemState, opt Options) (built int, res *Result) {
		c := newChecker(context.Background(), m, start, opt)
		c.pass()
		for _, sp := range c.spaces {
			for _, ns := range sp.states {
				if ns.flow == nil {
					continue
				}
				built++
				got, w, err := memoFlow(&c.msgs, ns.flow)
				if err != nil {
					t.Fatalf("node %d seq %d: %v", ns.node, ns.seq, err)
				}
				if want := chainFlow(sp, ns); !maps.Equal(got, want) {
					t.Fatalf("node %d seq %d: memo %v, chain recount %v", ns.node, ns.seq, got, want)
				}
				wides += w
			}
		}
		return built, c.res
	}

	quiet := oneProposalSpace(paxos.NoBug)
	built, res := memos(quiet, model.InitialSystem(quiet),
		Options{Invariant: paxos.Agreement(), Reduction: paxos.Reduction{}, Workers: 4})
	if res.Stats.SoundnessCalls != 0 || built != 0 {
		t.Fatalf("%d witness searches, yet %d of %d states carry a flow memo",
			res.Stats.SoundnessCalls, built, res.Stats.NodeStates)
	}

	buggy := paxos.New(3, paxos.LastResponseBug, paxos.ActiveIndex{MaxPerNode: 1})
	built, res = memos(buggy, PaperLiveState(t, buggy),
		Options{Invariant: paxos.Agreement(), Reduction: paxos.Reduction{}, StopAtFirstBug: true, Workers: 4})
	if len(res.Bugs) != 1 || res.Stats.SoundnessCalls == 0 || built == 0 {
		t.Fatalf("bugs=%d searches=%d memos=%d: the searching run is not exercised",
			len(res.Bugs), res.Stats.SoundnessCalls, built)
	}
	t.Logf("%d searches built %d memos (%d wide entries) over %d states",
		res.Stats.SoundnessCalls, built, wides, res.Stats.NodeStates)
}
