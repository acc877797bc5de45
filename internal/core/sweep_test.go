package core

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"lmc/internal/codec"
	"lmc/internal/model"
	"lmc/internal/protocols/paxos"
	"lmc/internal/spec"
)

// Tests for the generated system-state sweep (sweep.go, symProducts in
// reduce.go): it must enumerate exactly the combinations the leaf-filter
// loop it replaced kept, and count what that loop counted.

// refSweep is that loop, kept here as the reference: form every leaf of the
// plain product in lexicographic order (last list fastest), drop it if it is
// over MaxSystemDepth, ask symSkip, and visit what is left. It returns the
// symmetry skips.
func (c *checker) refSweep(lists [][]*nodeState, visit func(gidx, depth int, combo []*nodeState)) (skips int) {
	n, total := len(lists), 1
	for _, l := range lists {
		total *= len(l)
	}
	combo := make([]*nodeState, n)
	fps := make([]codec.Fingerprint, n)
	for gidx := 0; gidx < total; gidx++ {
		depth, rem := 0, gidx
		for d := n - 1; d >= 0; d-- {
			combo[d] = lists[d][rem%len(lists[d])]
			rem /= len(lists[d])
			depth += combo[d].depth
		}
		if c.opt.MaxSystemDepth > 0 && depth > c.opt.MaxSystemDepth {
			continue
		}
		if c.canon != nil && c.symSkip(combo, fps) {
			skips++
			continue
		}
		visit(gidx, depth, combo)
	}
	return skips
}

// sweepState is a synthetic node state that knows its slot and its index in
// the slot's visited list, so an invariant can name the combination it sees.
type sweepState struct{ slot, seq int }

func (s sweepState) Encode(w *codec.Writer) { w.Int(s.slot); w.Int(s.seq) }
func (s sweepState) Clone() model.State     { return s }
func (s sweepState) String() string         { return fmt.Sprintf("s%d.%d", s.slot, s.seq) }

// comboKey names a combination by its members' list indexes.
func comboKey(seqs func(d int) int, n int) int {
	key := 0
	for d := 0; d < n; d++ {
		key = key*1000 + seqs(d)
	}
	return key
}

// violates picks the combinations the test invariant rejects.
func violates(key int) bool { return key%5 == 0 }

// recordingInvariant counts the visits of every combination it is shown and
// rejects the ones violates picks. Chunk workers call it concurrently.
type recordingInvariant struct {
	mu     sync.Mutex
	visits map[int]int
}

func (r *recordingInvariant) Name() string { return "recording" }

func (r *recordingInvariant) Check(ss model.SystemState) *spec.Violation {
	key := comboKey(func(d int) int { return ss[d].(sweepState).seq }, len(ss))
	r.mu.Lock()
	r.visits[key]++
	r.mu.Unlock()
	if violates(key) {
		return spec.Violate("recording", ss, "picked")
	}
	return nil
}

// pairsInvariant is recordingInvariant over states that hold interest keys.
// It declares its pairs (spec.PrefixInvariant) and rejects a combination
// only when violates picks it and it holds a conflicting pair — so it fails
// only on such pairs, as the contract asks, but not on every one.
type pairsInvariant struct {
	recordingInvariant
	keyOf map[sweepState]int // absent: not interesting
	asked map[[2]int]int     // Conflict calls per key pair
	// sparsity sets how rare conflicts are: about one key pair in sparsity
	// conflicts. Dense relations decide subtrees deep in the walk, sparse
	// ones at the root of a chunked product.
	sparsity int
}

func (p *pairsInvariant) Pairs() spec.KeyedReduction { return p }

func (p *pairsInvariant) Interest(_ model.NodeID, s model.State) (spec.Interest, bool) {
	k, ok := p.keyOf[s.(sweepState)]
	return k, ok
}

func (p *pairsInvariant) InterestKey(i spec.Interest) string { return fmt.Sprint("k", i) }

// Conflict counts its calls without a lock: only the merge goroutine may
// ask, and -race holds the sweep to that.
func (p *pairsInvariant) Conflict(a, b spec.Interest) bool {
	x, y := a.(int), b.(int)
	p.asked[[2]int{min(x, y), max(x, y)}]++
	return p.keysConflict(x, y)
}

// keysConflict is a fixed symmetric relation on keys, self-pairs included.
func (p *pairsInvariant) keysConflict(x, y int) bool {
	return (min(x, y)*7919+max(x, y)*104729)%p.sparsity == 0
}

// conflicting reports whether two members of ss hold conflicting keys.
func (p *pairsInvariant) conflicting(ss model.SystemState) bool {
	for i := range ss {
		ki, ok := p.keyOf[ss[i].(sweepState)]
		for j := i + 1; ok && j < len(ss); j++ {
			if kj, ok := p.keyOf[ss[j].(sweepState)]; ok && p.keysConflict(ki, kj) {
				return true
			}
		}
	}
	return false
}

func (p *pairsInvariant) Check(ss model.SystemState) *spec.Violation {
	if v := p.recordingInvariant.Check(ss); v != nil && p.conflicting(ss) {
		return v
	}
	return nil
}

// newPairsInvariant keys about half of the states from a universe of
// keyUniverse keys. The checker's table is first given a random number of
// keys from the same universe, up to more than 64, as an earlier pass would
// have left it: ids then span two words, and a sweep meets both old and new
// ones.
func newPairsInvariant(rng *rand.Rand, c *checker, states [][]*nodeState, sparsity int) *pairsInvariant {
	const keyUniverse = 150
	p := &pairsInvariant{keyOf: make(map[sweepState]int), asked: make(map[[2]int]int), sparsity: sparsity}
	c.keys = newKeyTable(p)
	for i := rng.Intn(100); i > 0; i-- {
		earlier := sweepState{slot: -1, seq: i}
		p.keyOf[earlier] = rng.Intn(keyUniverse)
		c.keys.intern(&nodeState{state: earlier})
	}
	for _, slot := range states {
		for _, ns := range slot {
			if rng.Intn(2) == 0 {
				p.keyOf[ns.state.(sweepState)] = rng.Intn(keyUniverse)
			}
		}
	}
	return p
}

// sweepShape is one row of the differential table.
type sweepShape struct {
	name    string
	slots   int
	classes [][]model.NodeID
}

var sweepShapes = []sweepShape{
	{"no class", 3, nil},
	{"no class, 4 slots", 4, nil}, // products wide enough to chunk
	{"one class of 2", 3, [][]model.NodeID{{1, 2}}},
	{"one class of 3", 4, [][]model.NodeID{{1, 2, 3}}},
	{"two classes", 4, [][]model.NodeID{{0, 1}, {2, 3}}},
	{"non-contiguous class", 3, [][]model.NodeID{{0, 2}}},
}

// syntheticStates draws the states each slot will visit, in visiting order.
// The slots of a class draw fingerprints from one small universe — so twins
// exist, are missing, and meet in one arrangement — and a twin usually, not
// always, has its fingerprint's usual depth. Fingerprints are unique within
// a slot, as in a visited list.
func syntheticStates(rng *rand.Rand, sh sweepShape, perSlot int) [][]*nodeState {
	universe := make([]codec.Fingerprint, perSlot+2)
	usual := make([]int, len(universe))
	for i := range universe {
		universe[i] = codec.Fingerprint(rng.Uint64())
		usual[i] = rng.Intn(4)
	}
	inClass := make([]bool, sh.slots)
	for _, cl := range sh.classes {
		for _, d := range cl {
			inClass[d] = true
		}
	}
	out := make([][]*nodeState, sh.slots)
	for d := range out {
		for seq, u := range rng.Perm(len(universe))[:perSlot] {
			ns := &nodeState{node: model.NodeID(d), state: sweepState{d, seq},
				fp: universe[u], depth: usual[u]}
			if !inClass[d] {
				ns.fp = codec.Fingerprint(rng.Uint64())
			}
			if rng.Intn(4) == 0 {
				ns.depth = rng.Intn(5)
			}
			out[d] = append(out[d], ns)
		}
	}
	return out
}

// TestSweepMatchesLeafFilter grows synthetic spaces one state at a time, the
// way a round barrier does, and after every addition sweeps the product
// anchored at the new state twice — with refSweep and with forEachCombo — requiring
// the same set of combinations, each visited once, and the same
// SystemStates, SymmetrySkips, MaxDepth and preliminary violations in the
// same order. Growing between sweeps is what exercises the cached universal
// answers; the table must also reach pass B and both of its outcomes.
//
// Each configuration runs again under an invariant that declares its pairs
// (pairsInvariant). The sweep then decides subtrees — under a symmetry
// class too, where pass A counts canonical chains at class boundaries: a
// combination it does not visit must, by brute force, hold no conflicting
// pair, the counters must still be the reference's, and Conflict must be
// asked at most once per key pair.
func TestSweepMatchesLeafFilter(t *testing.T) {
	const perSlot = 7
	var passB, passBSkipped, passBKept, inside, outside int
	var decided, decidedWide, decidedInClass, cutPrelims int
	for _, sh := range sweepShapes {
		for _, bound := range []int{0, 5, 9} { // unbounded, tight, loose
			for _, workers := range []int{-1, 2, 4} {
				for seed := int64(0); seed < 8; seed++ {
					pairs := seed >= 4
					rng := rand.New(rand.NewSource(seed % 4))
					rec := &recordingInvariant{}
					c := &checker{
						res: &Result{},
						opt: Options{Invariant: rec, MaxSystemDepth: bound},
						// Not resolveWorkers: the pool is as wide as asked
						// even on a one-CPU host, so chunking is exercised.
						workers: max(workers, 1),
						canon:   buildCanonicalizer(sh.slots, sh.classes),
					}
					states := syntheticStates(rng, sh, perSlot)
					var pinv *pairsInvariant
					if pairs {
						pinv = newPairsInvariant(rng, c, states, []int{4, 6, 15, 60}[seed%4])
						rec, c.opt.Invariant = &pinv.recordingInvariant, pinv
					}
					// Every state gets its key id as it joins its space, as
					// at a barrier: the sweep never interns.
					for d := 0; d < sh.slots; d++ {
						c.spaces = append(c.spaces, newSpace())
						c.spaces[d].add(states[d][0])
						c.internKey(states[d][0])
					}
					for {
						var open []int
						for d, sp := range c.spaces {
							if len(sp.states) < perSlot {
								open = append(open, d)
							}
						}
						if len(open) == 0 {
							break
						}
						a := open[rng.Intn(len(open))]
						anchor := states[a][len(c.spaces[a].states)]
						c.spaces[a].add(anchor)
						c.internKey(anchor)
						lists := make([][]*nodeState, sh.slots)
						for d, sp := range c.spaces {
							// The view may lag the space, as it does when a
							// barrier merged several discoveries.
							lists[d] = sp.states[:1+rng.Intn(len(sp.states))]
						}
						lists[a] = []*nodeState{anchor}
						if c.canon != nil && c.canon.InClass(a) {
							inside++
						} else {
							outside++
						}

						want := make(map[int]int)
						combos := make(map[int][]*nodeState)
						var wantPrelims []int
						wantMax := 0
						wantSkips := c.refSweep(lists, func(gidx, depth int, combo []*nodeState) {
							key := comboKey(func(d int) int { return combo[d].seq }, len(combo))
							want[key]++
							wantMax = max(wantMax, depth)
							if pairs {
								combos[key] = append([]*nodeState(nil), combo...)
							}
							if violates(key) && (!pairs || pinv.conflicting(c.comboSystem(combo))) {
								wantPrelims = append(wantPrelims, gidx)
							}
						})

						rec.visits = make(map[int]int)
						before := c.res.Stats
						c.res.Stats.MaxDepth = 0
						got := c.forEachCombo(lists)
						at := fmt.Sprintf("%s bound=%d workers=%d seed=%d pairs=%v anchor=%s",
							sh.name, bound, workers, seed, pairs, anchor.state)
						for key, n := range rec.visits {
							if n != 1 || want[key] != 1 {
								t.Fatalf("%s: combination %d visited %d times, reference %d", at, key, n, want[key])
							}
						}
						for key := range want {
							if rec.visits[key] > 0 {
								continue
							}
							// Not visited: it must lie in a decided subtree.
							if !pairs {
								t.Fatalf("%s: combination %d not enumerated", at, key)
							}
							if pinv.conflicting(c.comboSystem(combos[key])) {
								t.Fatalf("%s: combination %d was decided but holds a conflicting pair", at, key)
							}
							decided++
							if c.canon != nil {
								decidedInClass++
							}
							for _, ns := range combos[key] {
								if ns.key >= 64 {
									decidedWide++
									break
								}
							}
						}
						if pairs {
							cutPrelims += len(wantPrelims)
						}
						st := c.res.Stats
						if n := st.SystemStates - before.SystemStates; n != len(want) {
							t.Fatalf("%s: SystemStates +%d, want +%d", at, n, len(want))
						}
						if n := st.InvariantChecks - before.InvariantChecks; n != len(want) {
							t.Fatalf("%s: InvariantChecks +%d, want +%d", at, n, len(want))
						}
						if n := st.SymmetrySkips - before.SymmetrySkips; n != wantSkips {
							t.Fatalf("%s: SymmetrySkips +%d, want +%d", at, n, wantSkips)
						}
						if st.MaxDepth != wantMax {
							t.Fatalf("%s: MaxDepth %d, want %d", at, st.MaxDepth, wantMax)
						}
						if n := st.PreliminaryViolations - before.PreliminaryViolations; n != len(wantPrelims) {
							t.Fatalf("%s: PreliminaryViolations +%d, want +%d", at, n, len(wantPrelims))
						}
						for i, p := range got {
							if p.idx != wantPrelims[i] {
								t.Fatalf("%s: prelim %d has index %d, want %d", at, i, p.idx, wantPrelims[i])
							}
							if key := comboKey(func(d int) int { return p.combo[d].seq }, len(p.combo)); !violates(key) {
								t.Fatalf("%s: prelim %d holds combination %d, which does not violate", at, i, key)
							}
						}

						for pi := range c.sw.prods {
							if !c.sw.prods[pi].filter {
								continue
							}
							passB++
							for wi := range c.sw.work { // this sweep's chunks
								if w := &c.sw.work[wi]; w.p == &c.sw.prods[pi] {
									passBSkipped += w.skips
									passBKept += w.states
								}
							}
						}
					}
					if pairs {
						for pair, n := range pinv.asked {
							if n != 1 {
								t.Fatalf("%s bound=%d workers=%d seed=%d: Conflict%v asked %d times",
									sh.name, bound, workers, seed, pair, n)
							}
						}
					}
				}
			}
		}
	}
	if passB == 0 || passBSkipped == 0 || passBKept == 0 {
		t.Fatalf("the table does not drive pass B: %d products, %d leaves skipped, %d kept",
			passB, passBSkipped, passBKept)
	}
	if inside == 0 || outside == 0 {
		t.Fatalf("anchors inside a class: %d, outside: %d", inside, outside)
	}
	if decided == 0 || decidedWide == 0 || decidedInClass == 0 || cutPrelims == 0 {
		t.Fatalf("the pairs configurations do not drive the cut: %d combinations decided (%d with a key id >= 64, %d under a class), %d violations beside them",
			decided, decidedWide, decidedInClass, cutPrelims)
	}
	t.Logf("pass B: %d products, %d leaves skipped, %d kept; anchors %d inside a class, %d outside",
		passB, passBSkipped, passBKept, inside, outside)
	t.Logf("cut: %d combinations decided, %d of them with a key id >= 64, %d under a class; %d violations beside them",
		decided, decidedWide, decidedInClass, cutPrelims)
}

// TestAdmissibleMatchesBruteForce checks the arithmetic behind
// SymmetrySkips: the convolution of the depth histograms against counting
// the depth-admissible combinations one by one.
func TestAdmissibleMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(4)
		lists := make([][]*nodeState, n)
		for d := range lists {
			for i := 1 + rng.Intn(6); i > 0; i-- {
				lists[d] = append(lists[d], &nodeState{depth: rng.Intn(6)})
			}
		}
		bound := rng.Intn(14) // 0 is unbounded
		c := &checker{opt: Options{MaxSystemDepth: bound}}
		want := 0
		c.refSweep(lists, func(int, int, []*nodeState) { want++ })

		s := &c.sw
		s.bound = bound
		if bound == 0 {
			s.bound = math.MaxInt
		}
		sum := 0
		for _, l := range lists {
			sum += len(l)
		}
		s.arena = make([]cand, sum)
		s.free, s.all, s.hist = s.arena, make([][]cand, n), make([][]int, n)
		// forEachCombo returns before it counts when some dimension has no
		// candidate within the bound.
		empty := false
		for d, l := range lists {
			s.all[d] = s.byDepth(l, d)
			empty = empty || len(s.all[d]) == 0
			for i, cd := range s.all[d] {
				if cd.ns != l[cd.pos] || cd.depth != cd.ns.depth || (i > 0 && cd.depth < s.all[d][i-1].depth) {
					t.Fatalf("trial %d: byDepth misplaced candidate %d of dimension %d", trial, i, d)
				}
			}
		}
		if empty {
			if want != 0 {
				t.Fatalf("trial %d: a dimension has no candidate within the bound, yet %d combinations are", trial, want)
			}
			continue
		}
		if got := s.admissible(); got != want {
			t.Fatalf("trial %d (bound %d): admissible=%d, brute force %d", trial, bound, got, want)
		}
	}
}

// TestChainCountsMatchBruteForce checks the arithmetic behind pass A's
// decided subtrees: a group's depth polynomial (sweepWork.chainHist), read
// through the suffix table as the cut reads it, against enumerating the
// fingerprint-non-decreasing chains one by one. The slots draw from one
// fingerprint universe, so chains meet equal fingerprints across slots, and
// a random range restricts one slot as a chunk restricts its split
// dimension.
func TestChainCountsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 1000; trial++ {
		k := 1 + rng.Intn(4)  // one slot is a plain dimension
		bound := rng.Intn(12) // 0 is unbounded
		universe := make([]codec.Fingerprint, 2+rng.Intn(6))
		for i := range universe {
			universe[i] = codec.Fingerprint(rng.Uint64())
		}
		dims := make([][]cand, k)
		for i := range dims {
			for _, u := range rng.Perm(len(universe))[:rng.Intn(len(universe)+1)] {
				depth := rng.Intn(5)
				if bound == 0 || depth <= bound { // byDepth's cut
					dims[i] = append(dims[i], cand{ns: &nodeState{fp: universe[u], depth: depth}, depth: depth})
				}
			}
			// As symProducts leaves pass A: the first slot in ascending
			// depth, the later ones in ascending fingerprint.
			if i == 0 {
				slices.SortStableFunc(dims[i], func(a, b cand) int { return cmp.Compare(a.depth, b.depth) })
			} else {
				slices.SortFunc(dims[i], func(a, b cand) int { return cmp.Compare(a.ns.fp, b.ns.fp) })
			}
		}
		w := &sweepWork{c: &checker{}, p: &product{dims: dims}, split: -1}
		w.c.sw.bound = bound
		if bound == 0 {
			w.c.sw.bound = math.MaxInt
		}
		if sp := rng.Intn(k); len(dims[sp]) > 0 && rng.Intn(3) > 0 {
			w.split, w.lo = sp, rng.Intn(len(dims[sp]))
			w.hi = w.lo + 1 + rng.Intn(len(dims[sp])-w.lo)
		}

		// Brute force: want[t] chains of total depth t.
		want := make([]int, 4*k+1)
		var chains func(i int, fp codec.Fingerprint, total int)
		chains = func(i int, fp codec.Fingerprint, total int) {
			if i == k {
				want[total]++
				return
			}
			for j, cd := range dims[i] {
				if (i > 0 && cd.ns.fp < fp) || (i == w.split && (j < w.lo || j >= w.hi)) {
					continue
				}
				chains(i+1, cd.ns.fp, total+cd.depth)
			}
		}
		chains(0, 0, 0)

		slots := make([]int, k)
		for i := range slots {
			slots[i] = i
		}
		h := w.chainHist(slots, nil)
		var tab suffixTable
		tab.fill([][]int{h}, w.c.sw.bound)
		at := fmt.Sprintf("trial %d (%d slots, bound %d, split %d [%d, %d))", trial, k, bound, w.split, w.lo, w.hi)
		count, deepest := 0, -1
		for room := range want {
			if bound > 0 && room > bound {
				break
			}
			if room < len(h) && h[room] != want[room] || room >= len(h) && want[room] != 0 {
				t.Fatalf("%s: polynomial %v, brute force %v", at, h, want)
			}
			if want[room] > 0 {
				count, deepest = count+want[room], room
			}
			if gc, gd := tab.at(0, room); gc != count || gd != deepest {
				t.Fatalf("%s: within %d the table counts %d chains, deepest %d; brute force %d, deepest %d",
					at, room, gc, gd, count, deepest)
			}
		}
	}
}

// TestGenSweepBenchmarkCounters runs the repository benchmark's two sweep
// inputs (benchmark/workloads.go, buildGenSweep) and pins the counters its
// oracle pins, so go test holds them too.
func TestGenSweepBenchmarkCounters(t *testing.T) {
	m := paxos.New(4, paxos.NoBug, paxos.OnceAt{Node: 0, Index: 0, Value: 2})
	start := model.InitialSystem(m)
	opt := Options{Invariant: paxos.Agreement(), MaxSystemDepth: 12, Workers: -1}
	if base := Check(m, start, opt); !base.Complete || base.Stats.SystemStates != 93_297_202 ||
		base.Stats.SymmetrySkips != 0 || base.Stats.MaxDepth != 12 {
		t.Fatalf("gen-sweep: %s", base.Stats.String())
	}
	// Unbounded, the sweep is 350 M combinations: the decided subtrees are
	// what keeps this line in tier-1.
	for _, workers := range []int{-1, 2} {
		unbounded := Options{Invariant: paxos.Agreement(), Workers: workers}
		if res := Check(m, start, unbounded); !res.Complete || res.Stats.SystemStates != 350_355_456 ||
			res.Stats.MaxDepth != 24 {
			t.Fatalf("unbounded gen-sweep, Workers=%d: %s", workers, res.Stats.String())
		}
	}
	// The benchmark still names the deleted partial-order reduction.
	reduce, err := ParseReductions("sym,por")
	if err != nil {
		t.Fatal(err)
	}
	opt.Reduce = reduce
	for _, workers := range []int{-1, 2} {
		opt.Workers = workers
		red := Check(m, start, opt)
		if !red.Complete || red.Stats.SystemStates != 16_674_957 ||
			red.Stats.SymmetrySkips != 76_622_245 || red.Stats.MaxDepth != 12 {
			t.Fatalf("gen-sweep-sym, Workers=%d: %s", workers, red.Stats.String())
		}
		// Unbounded and reduced, pass A's decided subtrees count canonical
		// chains: 350,355,456 = 62,092,800 states + 288,262,656 skips.
		unbounded := Options{Invariant: paxos.Agreement(), Reduce: reduce, Workers: workers}
		if res := Check(m, start, unbounded); !res.Complete || res.Stats.SystemStates != 62_092_800 ||
			res.Stats.SymmetrySkips != 288_262_656 || res.Stats.MaxDepth != 24 {
			t.Fatalf("unbounded gen-sweep-sym, Workers=%d: %s", workers, res.Stats.String())
		}
	}
}
