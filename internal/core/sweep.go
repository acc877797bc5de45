package core

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"lmc/internal/codec"
	"lmc/internal/model"
	"lmc/internal/obs"
)

// This file is system-state creation for LMC-GEN (Figure 9,
// checkSystemInvariant): the start-state check and the Cartesian sweep
// anchored at each newly visited node state. What it finds goes to the
// verdict path in confirm.go.

// comboFP fingerprints a combination without re-encoding any member state:
// node-state fingerprints are memoized at discovery, and
// model.SystemState.Fingerprint is the same order-sensitive combination of
// member fingerprints.
func comboFP(combo []*nodeState) codec.Fingerprint {
	h := codec.NewHasher()
	for _, ns := range combo {
		h.Add(ns.fp)
	}
	return h.Sum()
}

// checkStartState evaluates the invariant once on the start system state
// itself, before exploration.
func (c *checker) checkStartState() {
	if c.opt.Invariant == nil {
		return
	}
	combo := make([]*nodeState, len(c.spaces))
	for n := range c.spaces {
		combo[n] = c.spaces[n].states[0]
	}
	if c.opt.Reduction != nil && !c.keys.conflicting(combo) {
		// LMC-OPT admission applies to the start state too: with no
		// conflicting interests it cannot violate the invariant.
		return
	}
	c.res.Stats.SystemStates++
	c.res.Stats.InvariantChecks++
	if v := c.opt.Invariant.Check(c.comboSystem(combo)); v != nil {
		c.res.Stats.PreliminaryViolations++
		// A violating start state seeds the orbit sweep too: its permuted
		// arrangements may become realizable (and skipped) later.
		c.recordOrbit(combo)
		// The start state is the live state of a real run: the empty
		// schedule realizes it, so there is nothing to search or replay.
		c.settle(combo, v, &confirmResult{sound: true}, nil)
	}
}

// checkNewState is Procedure checkSystemInvariant of Figure 9: after node
// state ns is newly visited, materialize every system state that combines
// ns with already-visited states of the other nodes, and evaluate the
// invariant on each. Combinations of previously visited states were checked
// in earlier rounds, so fixing ns avoids revisiting system states (§4.2,
// "System states"). The other nodes' lists are taken at the discovery's
// virtual-time view, so a deferred (round-barrier) check sees exactly the
// states an inline sequential check would have seen.
func (c *checker) checkNewState(ns *nodeState, view []int) {
	if c.opt.Invariant == nil {
		return
	}
	// Confirmations settled under this call book their own SoundnessTime;
	// take it out so the two phases partition the call (clamped: parallel
	// confirmation sums worker time).
	t0, sound0 := time.Now(), c.res.Stats.SoundnessTime
	defer func() {
		if d := time.Since(t0) - (c.res.Stats.SoundnessTime - sound0); d > 0 {
			c.res.Stats.SystemStateTime += d
		}
	}()

	if c.opt.Reduction != nil {
		c.checkNewStateOpt(ns, view)
		return
	}
	c.forEachComboGEN(ns, view)
}

// forEachComboGEN runs the LMC-GEN sweep anchored at ns: the full
// Cartesian product of ns with the other nodes' visited states under the
// discovery's view.
func (c *checker) forEachComboGEN(ns *nodeState, view []int) {
	lists := make([][]*nodeState, len(c.spaces))
	for n := range c.spaces {
		if n == int(ns.node) {
			lists[n] = []*nodeState{ns}
		} else {
			lists[n] = c.viewStates(n, view)
		}
	}
	all := c.forEachCombo(lists)
	if c.stopped {
		return // the fixpoint sweep and confirmation will not run
	}
	// Violating orbits feed the fixpoint sweep: skipped sibling arrangements
	// of a violating combination get their own checks there.
	for i := range all {
		c.recordOrbit(all[i].combo)
	}
	c.confirmBatch(all)
}

// cand is one candidate of a sweep dimension. pos is its index in the
// dimension's list: a combination's enumeration index is built from
// positions, so candidates may be dropped and visited in any order.
type cand struct {
	ns    *nodeState
	pos   int
	depth int
}

// product is one Cartesian product of candidate arrays (one per dimension,
// in slot order) for sweepWork.walk. Unmarked, every array is in ascending
// depth and every leaf is kept.
type product struct {
	dims [][]cand
	// canonical is pass A of the symmetry sweep: class slots hold universal
	// members only, and a class slot after its class's first is in ascending
	// fingerprint order, entered at the lower bound of the previous class
	// slot's choice — so exactly the canonical arrangements are formed.
	canonical bool
	// filter is pass B: some class member is not universal, and symSkip
	// decides each leaf.
	filter bool
}

// sweepWork is one chunk of one product — the range [lo, hi) of dimension
// split's array — with its private scratch (the combination, its
// materialized system state, the members' positions) and private counters.
type sweepWork struct {
	c             *checker
	p             *product
	split, lo, hi int

	combo []*nodeState
	ss    model.SystemState
	pos   []int
	fps   []codec.Fingerprint // symSkip's scratch

	// The cut's scratch: acc[d*width:(d+1)*width] is the union of the
	// conflict rows of the keys in combo[:d], and table counts the chunk's
	// completions (hists are its groups' depth polynomials, own[g] the ones
	// this chunk computed, rows the chain tables behind them).
	acc   []uint64
	hists [][]int
	own   [][]int
	rows  [2][]int
	table suffixTable

	tick                    int
	states, skips, maxDepth int
	prelims                 []prelim
}

// sweepScratch is the working memory of forEachCombo. It lives on the
// checker and is reused by every anchor of a check, so a warm sweep
// allocates next to nothing.
type sweepScratch struct {
	bound   int   // MaxSystemDepth, or math.MaxInt when unbounded
	strides []int // of the mixed-radix enumeration index
	minRest []int // minRest[d]: the least total depth dimensions d.. can add
	prev    []int // prev[d]: the class slot before d in d's class, or -1

	arena, free []cand   // backs every candidate array; what carve has left
	all         [][]cand // per dimension: the candidates in ascending depth
	hist        [][]int  // per dimension: candidates per depth
	offs        []int
	table       suffixTable // admissible's
	dims        [][]cand    // backs the symmetry products' dims
	prods       []product
	work        []sweepWork
	halt        atomic.Bool // the deadline passed in some chunk

	// cut is set when the sweep decides subtrees (prepareCut): the invariant
	// declares its pairs. present[d*width:] is the set of key ids dimension d
	// holds in sw.all, suffix[d*width:] their union over dimensions d.., and
	// sufSafe[d] says that no two of those dimensions can hold conflicting
	// keys. Pass B of the symmetry sweep never decides: symSkip judges its
	// leaves one by one.
	cut             bool
	present, suffix []uint64
	sufSafe         []bool
	// The cut counts by groups, in first-slot order: a symmetry class is one
	// group (its polynomial counts pass A's chains), every other dimension is
	// one. gslots[goff[g]:goff[g+1]] are group g's slots. group[d] is the
	// first group at or after slot d when d is a class boundary — every class
	// lies wholly before d or wholly at or after it — and -1 otherwise: only
	// at a boundary do the undecided slots make up whole groups.
	gslots, goff, group []int
}

// grow returns s with length n, reallocating only when it is too small. The
// contents are unspecified. A fresh backing array is rounded up to 16
// elements, a multiple of 128 B that the allocator aligns to 128 B, so the
// scratch a chunk's worker writes at every leaf shares no cache line with
// another chunk's (four 4-element slices per chunk did, and two workers
// swept slower than one).
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, (n+15)&^15)
	}
	return s[:n]
}

// carve hands out an empty candidate array of capacity k from the sweep's
// arena.
func (s *sweepScratch) carve(k int) []cand {
	out := s.free[:0:k]
	s.free = s.free[k:]
	return out
}

// forEachCombo enumerates the combinations of lists (one visited-state list
// per node) within MaxSystemDepth, materializes each into a reused scratch
// system state and checks the invariant. It returns the preliminary
// violations in ascending enumeration index — the index of the plain
// lexicographic product, last list fastest — whatever order it visited in,
// unless the Budget's deadline has passed: the run then stops, and the
// violations are left unsorted.
//
// It generates what it keeps instead of filtering what it forms: every
// dimension is put in ascending depth once, and left at the first candidate
// that cannot fit under the bound even with the shallowest choice in every
// remaining dimension; under the symmetry reduction symProducts replaces the
// product by ones that hold canonical arrangements only, or few leaves.
// SymmetrySkips is the depth-admissible product size minus what was
// enumerated. When the invariant declares its conflicting pairs, a subtree
// in which no two slots can hold conflicting interests is counted from the
// depth histograms — for pass A, the class chain polynomials — instead of
// walked (prepareCut, sweepWork.decided).
//
// When the product is large and Options.Workers allows, each product's
// widest dimension is chunked across the worker pool (§1: "the model
// checking process can be embarrassingly parallelized"); counters are sums
// and a max, so stats and reported bugs are identical for every worker
// count.
func (c *checker) forEachCombo(lists [][]*nodeState) []prelim {
	if c.stopped {
		return nil
	}
	// The walk reads the clock every 1,024 visits, but an anchor decided at
	// its root makes about one visit after a preparation that reads every
	// list: each anchor reads it once too, so a barrier full of discoveries
	// cannot run past the budget.
	if c.pastDeadline() {
		c.stop(obs.StopBudget)
		return nil
	}
	n, total, sum := len(lists), 1, 0
	for _, l := range lists {
		total *= len(l)
		sum += len(l)
	}
	if total == 0 {
		return nil
	}
	s := &c.sw
	s.bound = c.opt.MaxSystemDepth
	if s.bound <= 0 {
		s.bound = math.MaxInt
	}

	// Depth-ordered candidates.
	s.arena = grow(s.arena, 4*sum)
	s.free = s.arena
	s.strides, s.minRest = grow(s.strides, n), grow(s.minRest, n+1)
	s.all, s.hist = grow(s.all, n), grow(s.hist, n)
	s.minRest[n] = 0
	for d, stride := n-1, 1; d >= 0; d-- {
		s.strides[d] = stride
		stride *= len(lists[d])
		s.all[d] = s.byDepth(lists[d], d)
		if len(s.all[d]) == 0 {
			return nil
		}
		s.minRest[d] = s.minRest[d+1] + s.all[d][0].depth
	}
	s.prods = s.prods[:0]
	if c.canon == nil {
		s.prods = append(s.prods, product{dims: s.all})
	} else {
		c.symProducts()
	}
	s.cut = c.keys != nil
	if s.cut {
		c.prepareCut()
	}

	// Chunk each product's widest dimension. Reslicing s.work keeps the
	// scratch of earlier sweeps' chunks.
	work := s.work[:0]
	for pi := range s.prods {
		p := &s.prods[pi]
		widest := 0
		for d := range p.dims {
			if len(p.dims[d]) > len(p.dims[widest]) {
				widest = d
			}
		}
		width := len(p.dims[widest])
		nchunks := min(c.workers, width)
		if nchunks < 2 || total < parallelThreshold {
			nchunks = 1
		}
		chunk := (width + nchunks - 1) / nchunks
		for lo := 0; lo < width; lo += chunk {
			if len(work) < cap(work) {
				work = work[:len(work)+1]
			} else {
				work = append(work, sweepWork{})
			}
			w := &work[len(work)-1]
			*w = sweepWork{c: c, p: p, split: widest, lo: lo, hi: min(lo+chunk, width),
				combo: grow(w.combo, n), ss: grow(w.ss, n), pos: grow(w.pos, n), fps: grow(w.fps, n),
				acc: w.acc, hists: w.hists, own: w.own, rows: w.rows, table: w.table}
		}
	}
	s.work = work
	s.halt.Store(false)
	c.runParallel(len(work), func(i int) { work[i].run() })
	halted := s.halt.Load()

	var all []prelim
	states, skips := 0, 0
	for i := range work {
		w := &work[i]
		states += w.states
		skips += w.skips
		c.res.Stats.MaxDepth = max(c.res.Stats.MaxDepth, w.maxDepth)
		all = append(all, w.prelims...)
	}
	if c.canon != nil && !halted {
		// A sweep cut short by the budget counts only the skips it made.
		skips = s.admissible() - states
	}
	c.res.Stats.SystemStates += states
	c.res.Stats.InvariantChecks += states
	c.res.Stats.SymmetrySkips += skips
	c.res.Stats.PreliminaryViolations += len(all)
	// A sweep can end just short of the deadline with hundreds of thousands
	// of violations: their order matters only to confirmation, which a
	// passed deadline cancels.
	if halted || c.pastDeadline() {
		c.stop(obs.StopBudget)
		return all
	}
	slices.SortFunc(all, func(a, b prelim) int { return cmp.Compare(a.idx, b.idx) })
	return all
}

// byDepth carves the candidates of dimension d that are no deeper than the
// bound, in ascending depth, and leaves their per-depth counts in hist[d]. A
// counting sort: linear, and ties keep list order.
func (s *sweepScratch) byDepth(list []*nodeState, d int) []cand {
	hist := s.hist[d][:0]
	for _, ns := range list {
		if ns.depth > s.bound {
			continue
		}
		for len(hist) <= ns.depth {
			hist = append(hist, 0)
		}
		hist[ns.depth]++
	}
	s.hist[d] = hist
	s.offs = grow(s.offs, len(hist))
	kept := 0
	for depth, k := range hist {
		s.offs[depth] = kept
		kept += k
	}
	dst := s.carve(kept)[:kept]
	for pos, ns := range list {
		if ns.depth <= s.bound {
			dst[s.offs[ns.depth]] = cand{ns: ns, pos: pos, depth: ns.depth}
			s.offs[ns.depth]++
		}
	}
	return dst
}

// admissible counts the combinations of the full product whose total depth
// is within the bound.
func (s *sweepScratch) admissible() int {
	s.table.fill(s.hist, s.bound)
	count, _ := s.table.at(0, s.bound)
	return count
}

// suffixTable counts a product's combinations by total depth, for every
// suffix of its dimensions: the convolution of the dimensions' depth
// histograms, summed up to each total. Totals are kept up to the bound.
type suffixTable struct {
	stride int
	// cum[d*stride+t] counts the combinations of dimensions d.. whose total
	// depth is at most t; deep[d*stride+t] is the deepest such total, or -1.
	cum, deep []int
}

// fill builds the table of the product whose depth histograms are hists.
func (t *suffixTable) fill(hists [][]int, bound int) {
	n, most := len(hists), 0
	for _, h := range hists {
		most += len(h) - 1
	}
	t.stride = min(most, bound) + 1
	t.cum, t.deep = grow(t.cum, (n+1)*t.stride), grow(t.deep, (n+1)*t.stride)
	for i := n * t.stride; i < len(t.cum); i++ {
		t.cum[i], t.deep[i] = 1, 0 // the empty suffix: one combination, of total 0
	}
	for d := n - 1; d >= 0; d-- {
		cum, deep := t.cum[d*t.stride:(d+1)*t.stride], t.deep[d*t.stride:(d+1)*t.stride]
		rcum, rdeep := t.cum[(d+1)*t.stride:], t.deep[(d+1)*t.stride:]
		for tot := range cum {
			cum[tot], deep[tot] = 0, -1
			for j, k := range hists[d][:min(len(hists[d]), tot+1)] {
				if k > 0 && rdeep[tot-j] >= 0 {
					cum[tot] += k * rcum[tot-j]
					deep[tot] = max(deep[tot], j+rdeep[tot-j])
				}
			}
		}
	}
}

// at returns how many combinations of dimensions d.. have total depth at
// most room (room >= 0), and the deepest of those totals.
func (t *suffixTable) at(d, room int) (count, deepest int) {
	i := d*t.stride + min(room, t.stride-1)
	return t.cum[i], t.deep[i]
}

// prepareCut completes the conflict rows among the keys the sweep's
// candidates hold, and builds what sweepWork.decided reads: the
// key ids of every suffix of dimensions, whether a suffix can hold a
// conflicting pair within itself, and the counting groups. Two candidates
// of one dimension never meet in a combination, so only pairs across
// dimensions count. The key sets are sw.all's, a superset of every
// product's, so they decide soundly for pass A too.
func (c *checker) prepareCut() {
	s, k := &c.sw, c.keys
	n, wd := len(s.all), k.width
	s.present, s.suffix = grow(s.present, n*wd), grow(s.suffix, (n+1)*wd)
	clear(s.present)
	clear(s.suffix)
	for d := n - 1; d >= 0; d-- {
		p := s.present[d*wd : (d+1)*wd]
		for _, cd := range s.all[d] {
			if id := cd.ns.key; id != 0 {
				p[id>>6] |= 1 << (id & 63)
			}
		}
		suf, after := s.suffix[d*wd:(d+1)*wd], s.suffix[(d+1)*wd:(d+2)*wd]
		for i := range suf {
			suf[i] = after[i] | p[i]
		}
	}
	k.complete(s.suffix[:wd])
	s.sufSafe = grow(s.sufSafe, n+1)
	s.sufSafe[n] = true
	for d := n - 1; d >= 0; d-- {
		s.sufSafe[d] = s.sufSafe[d+1] && !k.meets(s.present[d*wd:(d+1)*wd], s.suffix[(d+1)*wd:(d+2)*wd])
	}

	var classes [][]int
	if c.canon != nil {
		classes = c.canon.Classes()
	}
	s.group = grow(s.group, n+1)
	clear(s.group)
	for _, cl := range classes {
		for d := cl[0] + 1; d <= cl[len(cl)-1]; d++ {
			s.group[d] = -1
		}
	}
	s.gslots, s.goff = s.gslots[:0], append(s.goff[:0], 0)
	for d := 0; d < n; d++ {
		if s.group[d] == 0 {
			s.group[d] = len(s.goff) - 1
		}
		ci := slices.IndexFunc(classes, func(cl []int) bool { return slices.Contains(cl, d) })
		switch {
		case ci < 0:
			s.gslots = append(s.gslots, d)
		case classes[ci][0] == d:
			s.gslots = append(s.gslots, classes[ci]...)
		default:
			continue // in the group of its class's first slot
		}
		s.goff = append(s.goff, len(s.gslots))
	}
	s.group[n] = len(s.goff) - 1
}

// run walks the chunk. Under the cut it first counts the chunk's
// completions by total depth, and the walk starts from the empty prefix,
// which holds no conflicting pair.
func (w *sweepWork) run() {
	s := &w.c.sw
	if !s.cut || w.p.filter {
		w.walk(0, 0, false)
		return
	}
	ng := len(s.goff) - 1
	w.hists, w.own = grow(w.hists, ng), grow(w.own, ng)
	for g := range w.hists {
		slots := s.gslots[s.goff[g]:s.goff[g+1]]
		if len(slots) == 1 && slots[0] != w.split {
			// Outside the classes every product holds all of sw.all.
			w.hists[g] = s.hist[slots[0]]
			continue
		}
		w.own[g] = w.chainHist(slots, w.own[g])
		w.hists[g] = w.own[g]
	}
	w.table.fill(w.hists, s.bound)
	wd := w.c.keys.width
	w.acc = grow(w.acc, (len(w.combo)+1)*wd)
	clear(w.acc[:wd])
	w.walk(0, 0, true)
}

// chainHist returns, in h's storage, the depth polynomial of one group of
// the chunk's product: how many of the group's arrangements walk forms have
// each total depth, up to the bound. A group of one slot is that slot's
// depth histogram over the chunk's range. A class group counts chains — one
// candidate per class slot with fingerprints non-decreasing in slot order,
// equal ones included — which are exactly the arrangements walk forms with
// byFP: the last slot's candidates are summed from the end of its
// fingerprint-sorted list, and each earlier candidate adds, shifted by its
// depth, the sum the next slot holds from the candidate's lower bound on.
func (w *sweepWork) chainHist(slots []int, h []int) []int {
	s := &w.c.sw
	span := func(d int) (cands []cand, lo, hi int) {
		cands = w.p.dims[d]
		if d == w.split {
			return cands, w.lo, w.hi
		}
		return cands, 0, len(cands)
	}
	if len(slots) == 1 {
		h = append(h[:0], 0)
		cands, lo, hi := span(slots[0])
		for _, cd := range cands[lo:hi] {
			for len(h) <= cd.depth {
				h = append(h, 0)
			}
			h[cd.depth]++
		}
		return h
	}
	most := 0
	for _, d := range slots {
		deepest := 0
		for _, cd := range w.p.dims[d] {
			deepest = max(deepest, cd.depth)
		}
		most += deepest
	}
	width := min(most, s.bound) + 1
	// rows[j*width:] counts, by total depth, the chains of slots i.. (i >= 1)
	// whose slot-i candidate is at index j or later of its list; the row past
	// the end is empty.
	var next []int
	var after []cand
	for i := len(slots) - 1; i > 0; i-- {
		cands, lo, hi := span(slots[i])
		rows := grow(w.rows[i%2], (len(cands)+1)*width)
		w.rows[i%2] = rows
		clear(rows[len(cands)*width:])
		lb := len(after)
		for j := len(cands) - 1; j >= 0; j-- {
			row := rows[j*width : (j+1)*width]
			copy(row, rows[(j+1)*width:(j+2)*width])
			cd := &cands[j]
			switch {
			case j < lo || j >= hi:
			case next == nil:
				row[cd.depth]++
			default:
				// The next slot's list is in fingerprint order too: merge.
				for lb > 0 && after[lb-1].ns.fp >= cd.ns.fp {
					lb--
				}
				addShifted(row, next[lb*width:(lb+1)*width], cd.depth)
			}
		}
		next, after = rows, cands
	}
	// The class's first slot is in depth order: each candidate looks its
	// lower bound up, and only the sum is kept.
	h = grow(h, width)
	clear(h)
	cands, lo, hi := span(slots[0])
	for _, cd := range cands[lo:hi] {
		lb := sort.Search(len(after), func(x int) bool { return after[x].ns.fp >= cd.ns.fp })
		addShifted(h, next[lb*width:(lb+1)*width], cd.depth)
	}
	return h
}

// addShifted adds src, shifted up by shift, to dst (of src's length); what
// passes the end is dropped.
func addShifted(dst, src []int, shift int) {
	for t, k := range src[:len(src)-shift] {
		dst[t+shift] += k
	}
}

// decided reports whether the subtree under combo[:d], a prefix that holds
// no conflicting pair, is decided: d is a class boundary, and no key that
// dimensions d.. hold conflicts with a prefix key or with a key of another
// of those dimensions. By the spec.PrefixInvariant contract every leaf of
// the subtree then holds the invariant.
func (w *sweepWork) decided(d int) bool {
	s, wd := &w.c.sw, w.c.keys.width
	if s.group[d] < 0 || !s.sufSafe[d] {
		return false
	}
	acc, suf := w.acc[d*wd:(d+1)*wd], s.suffix[d*wd:(d+1)*wd]
	for i := range acc {
		if acc[i]&suf[i] != 0 {
			return false
		}
	}
	return true
}

// extend reports whether the conflict-free prefix combo[:d] stays
// conflict-free with a state of key id added at d, and if so leaves the
// longer prefix's row union in acc[(d+1)*width:].
func (w *sweepWork) extend(d int, id int32) bool {
	k := w.c.keys
	acc := w.acc[d*k.width : (d+1)*k.width]
	if acc[id>>6]&(1<<(id&63)) != 0 {
		return false
	}
	row, next := k.rows[id], w.acc[(d+1)*k.width:(d+2)*k.width]
	for i := range next {
		next[i] = acc[i] | row[i]
	}
	return true
}

// walk enumerates dimensions d.. of the chunk's product under the prefix
// chosen in combo[:d], whose total depth is depth. safe says that the
// sweep decides subtrees and that the prefix holds no conflicting pair.
func (w *sweepWork) walk(d, depth int, safe bool) {
	c, s := w.c, &w.c.sw
	if safe && w.decided(d) {
		// Pass A's prefix may leave a class no chain within the bound.
		if count, deepest := w.table.at(s.group[d], s.bound-depth); count > 0 {
			w.states += count
			w.maxDepth = max(w.maxDepth, depth+deepest)
		}
		return
	}
	cands := w.p.dims[d]
	lo, hi := 0, len(cands)
	if d == w.split {
		lo, hi = w.lo, w.hi
	}
	byFP := w.p.canonical && s.prev[d] >= 0
	if byFP {
		fp := w.combo[s.prev[d]].fp
		lo = max(lo, sort.Search(len(cands), func(i int) bool { return cands[i].ns.fp >= fp }))
	}
	room := s.bound - depth - s.minRest[d+1]
	last := d == len(w.combo)-1
	for i := lo; i < hi; i++ {
		cd := &cands[i]
		// The system-state phase can dominate a run (Figure 13), so the
		// wall-clock budget is enforced here too, counted in visits: pruned
		// iterations cost time as well.
		if w.tick++; w.tick&1023 == 0 {
			if c.pastDeadline() {
				s.halt.Store(true)
			}
			if s.halt.Load() {
				return
			}
		}
		if cd.depth > room {
			if byFP {
				continue
			}
			break // depth-ordered: no later candidate fits either
		}
		w.combo[d], w.ss[d], w.pos[d] = cd.ns, cd.ns.state, cd.pos
		if !last {
			w.walk(d+1, depth+cd.depth, safe && w.extend(d, cd.ns.key))
			if s.halt.Load() {
				return
			}
			continue
		}
		if w.p.filter && c.symSkip(w.combo, w.fps) {
			// A non-canonical arrangement whose representative is covered:
			// its verdict is decided at the representative's enumeration
			// point (clean) or by the fixpoint orbit sweep (violating).
			w.skips++
			continue
		}
		w.states++
		w.maxDepth = max(w.maxDepth, depth+cd.depth)
		if v := c.opt.Invariant.Check(w.ss); v != nil {
			gidx := 0
			for dd, pos := range w.pos {
				gidx += pos * s.strides[dd]
			}
			w.prelims = append(w.prelims, newPrelim(gidx, w.combo, w.ss, v))
		}
	}
}

// comboSystem materializes the temporary system state for a combination.
func (c *checker) comboSystem(combo []*nodeState) model.SystemState {
	ss := make(model.SystemState, len(combo))
	for i, ns := range combo {
		ss[i] = ns.state
	}
	return ss
}

// comboDepth is the total depth of a combination: the sum of member path
// lengths, the depth axis of the paper's LMC plots.
func comboDepth(combo []*nodeState) int {
	d := 0
	for _, ns := range combo {
		d += ns.depth
	}
	return d
}
