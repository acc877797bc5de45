package core

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"lmc/internal/codec"
	"lmc/internal/model"
	"lmc/internal/netstate"
	"lmc/internal/trace"
)

// Differential oracles for the two halves of the witness search's fast path:
// the member columns (columnSearch, witness.go) against the per-pair loop
// they replace, and the dense sequence validator (sequenceValid,
// soundness.go) against Figure 9's map-based formulation.

// columnWorld is a synthetic LMC-OPT search setting: anchors on node 0, one
// interest group on node 1, completion nodes 2 and 3.
type columnWorld struct {
	c *checker
	g *interestGroup
}

// newColumnWorld builds a world from seed; equal seeds build equal worlds,
// so one can run the columns and its twin the per-pair loop. Thirsty
// spaces consume on every edge and lose most of their emissions, the
// completion nodes nearly all, so missing sets are large and coverage often
// fails; doubled ones (doubleUp) carry wide entries; twice seeds some
// message two times.
func newColumnWorld(seed int64, msgs int, thirsty, doubled, twice bool) columnWorld {
	rng := rand.New(rand.NewSource(seed))
	universe := testUniverse(msgs)
	counts := make(map[codec.Fingerprint]int)
	for _, fp := range universe {
		if rng.Intn(3) == 0 {
			counts[fp] = 1
		}
	}
	if twice {
		counts[universe[rng.Intn(len(universe))]] = 2
	}
	c := &checker{initNetCount: counts, res: &Result{}, msgs: newMsgIDs(counts)}
	for n, size := range []int{40, 220, 60, 30} {
		sp := buildRandomSpace(rng, model.NodeID(n), size, universe)
		if thirsty {
			// Every edge consumes, few emit; the completion nodes, whose
			// emissions coverage asks about, are the thirstiest.
			keep := 8
			if n >= 2 {
				keep = 12
			}
			for _, ns := range sp.states[1:] {
				e := &ns.preds[0]
				if e.kind != model.NetworkEvent {
					e.kind, e.msgFP = model.NetworkEvent, universe[rng.Intn(len(universe))]
				}
				if rng.Intn(keep) > 0 {
					e.genN = 0
				}
			}
		}
		if doubled {
			doubleUp(rng, sp, universe)
		}
		// The edges changed after the producer index saw them.
		clear(sp.minProducer)
		for _, ns := range sp.states {
			sp.indexProducers(ns)
		}
		c.spaces = append(c.spaces, sp)
	}
	g := &interestGroup{key: 1}
	for _, ns := range c.spaces[1].states {
		if rng.Intn(5) > 0 {
			g.members = append(g.members, ns)
		}
	}
	return columnWorld{c, g}
}

// columnSearchSpec is one search of TestColumnsMatchPairLoop, drawn at
// random.
type columnSearchSpec struct {
	anchor, n    int // the anchor's seq on node 0; the visible members
	view         []int
	budget, tick int // at the start
	late         bool
}

// run runs one search with a recording pursue: each feasible candidate is
// logged with its missing set, spends some budget and ticks, and now and
// then ends the search — a deterministic stand-in for the completion walk.
func (cw columnWorld) run(sp columnSearchSpec, columns bool) (log []string, w *witnessScratch) {
	c := cw.c
	c.stopped = false
	c.deadline = time.Time{}
	if sp.late {
		c.deadline = time.Unix(1, 0)
	}
	ns := c.spaces[0].states[sp.anchor]
	w = c.beginSearch(ns, 1)
	w.budget, w.tick = sp.budget, sp.tick
	flow := c.msgs.flowOf(c.spaces[0], ns)
	pursue := func() bool {
		b := w.combo[1]
		log = append(log, fmt.Sprintf("%d:%x", b.seq, []uint64(w.miss)))
		h := (b.seq*7 + sp.anchor*13) % 11
		w.budget -= h
		w.tick += h % 3
		return h == 0 && sp.anchor%3 == 0
	}
	if columns {
		c.examineGroup(w, flow, 1, cw.g, sp.n, sp.view, pursue)
	} else {
		c.pairSearch(w, flow, 1, cw.g.members[:sp.n], sp.view, pursue)
	}
	return log, w
}

// TestColumnsMatchPairLoop holds the member columns to the per-pair loop
// they replace, search after search on twin worlds: the same feasible
// candidates with the same missing sets, in the same order, the same
// cover-index hits and misses, the same budget, tick and stop at the end,
// and the same flow memos and message ids — the columns build no memo the
// loop does not. The searches cut the group mid-block, start at random
// ticks so deadline polls land mid-chunk (and, on late searches, stop
// there), and run on small budgets; the worlds span the 6- and
// 150-message universes, with wide members and anchors, and with a message
// seeded twice, which takes the per-pair loop throughout.
func TestColumnsMatchPairLoop(t *testing.T) {
	chunked, feasible, refuted := 0, 0, 0
	for _, tc := range []struct {
		name           string
		msgs           int
		doubled, twice bool
	}{
		{"narrow", 6, false, false},
		{"wide", 150, false, false},
		{"narrow doubled", 6, true, false},
		{"wide doubled", 150, true, false},
		{"narrow twice", 6, false, true},
		{"wide twice", 150, false, true},
	} {
		for seed := int64(0); seed < 6; seed++ {
			thirsty := seed%2 == 1
			cols := newColumnWorld(200+seed, tc.msgs, thirsty, tc.doubled, tc.twice)
			pair := newColumnWorld(200+seed, tc.msgs, thirsty, tc.doubled, tc.twice)
			rng := rand.New(rand.NewSource(300 + seed))
			for search := 0; search < 60; search++ {
				sp := columnSearchSpec{
					anchor: rng.Intn(len(cols.c.spaces[0].states)),
					n:      1 + rng.Intn(len(cols.g.members)),
					budget: maxSequencesPerCheck,
					tick:   rng.Intn(3 * deadlinePollInterval),
					late:   rng.Intn(8) == 0,
				}
				if rng.Intn(3) == 0 {
					sp.budget = 1 + rng.Intn(150)
				}
				for _, s := range cols.c.spaces {
					lim := len(s.states)
					if rng.Intn(2) == 0 {
						lim = rng.Intn(lim + 1)
					}
					sp.view = append(sp.view, lim)
				}
				before := cols.c.res.Stats
				gotLog, gw := cols.run(sp, true)
				wantLog, ww := pair.run(sp, false)
				where := fmt.Sprintf("%s seed %d search %d (%+v)", tc.name, seed, search, sp)
				if !slices.Equal(gotLog, wantLog) {
					t.Fatalf("%s: feasible candidates\n%v\nwant\n%v", where, gotLog, wantLog)
				}
				if g, p := cols.c.res.Stats, pair.c.res.Stats; g.CoverIndexHits != p.CoverIndexHits || g.CoverIndexMisses != p.CoverIndexMisses {
					t.Fatalf("%s: charged %d hits, %d misses in all; the per-pair loop %d, %d",
						where, g.CoverIndexHits, g.CoverIndexMisses, p.CoverIndexHits, p.CoverIndexMisses)
				}
				if gw.budget != ww.budget || gw.tick != ww.tick || cols.c.stopped != pair.c.stopped {
					t.Fatalf("%s: budget %d tick %d stopped %v; the per-pair loop %d %d %v",
						where, gw.budget, gw.tick, cols.c.stopped, ww.budget, ww.tick, pair.c.stopped)
				}
				if !slices.Equal(cols.c.msgs.fps, pair.c.msgs.fps) {
					t.Fatalf("%s: message ids %v, the per-pair loop %v", where, cols.c.msgs.fps, pair.c.msgs.fps)
				}
				for n := range cols.c.spaces {
					for i, s := range cols.c.spaces[n].states {
						if o := pair.c.spaces[n].states[i]; !reflect.DeepEqual(s.flow, o.flow) {
							t.Fatalf("%s: node %d seq %d has memo %+v, the per-pair loop's %+v", where, n, i, s.flow, o.flow)
						}
					}
				}
				feasible += len(gotLog)
				refuted += cols.c.res.Stats.CoverIndexMisses - before.CoverIndexMisses
			}
			if !tc.twice {
				chunked += cols.g.cols.filled
			} else if cols.g.cols.filled != 0 {
				t.Fatalf("%s seed %d: a pass that seeds a message twice entered %d members in the columns",
					tc.name, seed, cols.g.cols.filled)
			}
		}
	}
	if chunked < 1000 || feasible < 1000 || refuted < 10000 {
		t.Fatalf("%d members entered, %d feasible candidates, %d misses: the columns are barely exercised",
			chunked, feasible, refuted)
	}
	t.Logf("%d members entered, %d feasible candidates, %d misses charged", chunked, feasible, refuted)
}

// isSequenceValidByMap is Figure 9's isSequenceValid over fingerprints, a
// multiset of generated messages in a map: the formulation sequenceValid
// replaced, kept as its oracle.
func (c *checker) isSequenceValidByMap(combo []*nodeState, seqs [][]pred) (bool, trace.Schedule) {
	net := maps.Clone(c.initNetCount)
	if net == nil {
		net = make(map[codec.Fingerprint]int)
	}
	pos := make([]int, len(seqs))
	var order []int
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

// isStateSoundByMap is isStateSound's odometer over isSequenceValidByMap.
func (c *checker) isStateSoundByMap(combo []*nodeState, pathCap int, budget, seqs *int) (bool, trace.Schedule) {
	paths := make([][][]pred, len(combo))
	for k, ns := range combo {
		paths[k] = c.spaces[ns.node].enumeratePathsCapped(new(soundScratch), ns, pathCap, nil)
		if len(paths[k]) == 0 {
			return false, nil
		}
	}
	idx := make([]int, len(paths))
	cand := make([][]pred, len(paths))
	for {
		for k := range paths {
			cand[k] = paths[k][idx[k]]
		}
		*budget--
		*seqs++
		if ok, sched := c.isSequenceValidByMap(combo, cand); ok {
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

// TestDenseSequenceValidMatchesMap holds the dense confirmation to the map
// oracle on random combinations of random spaces with second routes to
// their states: every odometer position of every combination must get the
// same verdict — and a valid one the same schedule — from sequenceValid on
// one reused scratch as from isSequenceValidByMap, and the whole search the
// same verdict, schedule, budget and sequence count, on small budgets too.
// The 80-message universe grows the scratch's id table past its first size.
func TestDenseSequenceValidMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	sc := new(soundScratch)
	trials, positions, valid, sound, multi := 0, 0, 0, 0, 0
	for _, msgs := range []int{6, 80} {
		universe := testUniverse(msgs)
		c := &checker{res: &Result{}, initNetCount: map[codec.Fingerprint]int{universe[0]: 2, universe[3]: 1},
			m: stepMachine{kind: "idle"}, net: netstate.NewSharedNet(0)}
		c.net.Add(stepEvent{Kind: "idle"})
		for n := 0; n < 3; n++ {
			sp := buildRandomSpace(rng, model.NodeID(n), 30, universe)
			for _, ns := range sp.states {
				for r := rng.Intn(3); r > 0 && ns.seq > 1; r-- {
					link(sp, ns, sp.states[rng.Intn(ns.seq)], pred{kind: model.NetworkEvent, msgFP: universe[rng.Intn(len(universe))]},
						universe[rng.Intn(len(universe))])
				}
			}
			c.spaces = append(c.spaces, sp)
		}
		for trial := 0; trial < 300; trial++ {
			trials++
			if trial%25 == 0 {
				sc = new(soundScratch) // so the id table grows again
			}
			combo := make([]*nodeState, len(c.spaces))
			for n, sp := range c.spaces {
				combo[n] = sp.states[rng.Intn(len(sp.states))]
			}
			budget := maxSequencesPerCheck
			if trial%4 == 0 {
				budget = 1 + rng.Intn(8)
			}
			gb, wb := budget, budget
			var gs, ws int
			gotOK, gotSched := c.isStateSound(combo, witnessPathCap, &gb, &gs, sc)
			wantOK, wantSched := c.isStateSoundByMap(combo, witnessPathCap, &wb, &ws)
			if gotOK != wantOK || !reflect.DeepEqual(gotSched, wantSched) || gb != wb || gs != ws {
				t.Fatalf("%d messages, trial %d: dense (%v, %d events, budget %d, %d sequences), map (%v, %d events, budget %d, %d sequences)",
					msgs, trial, gotOK, len(gotSched), gb, gs, wantOK, len(wantSched), wb, ws)
			}
			if gotOK {
				sound++
			}
			if gs > 1 {
				multi++
			}

			// Every odometer position, on the paths isStateSound left in sc.
			if len(sc.paths) < len(combo) || slices.ContainsFunc(sc.paths[:len(combo)], func(p [][]pred) bool { return len(p) == 0 }) {
				continue
			}
			idx := make([]int, len(combo))
			for {
				cand := make([][]pred, len(combo))
				for k := range combo {
					cand[k] = sc.paths[k][idx[k]]
				}
				ok, sched := sc.sequenceValid(idx), trace.Schedule(nil)
				if ok {
					sched = c.schedule(sc, combo, idx)
					valid++
				}
				wantOK, wantSched := c.isSequenceValidByMap(combo, cand)
				if ok != wantOK || !reflect.DeepEqual(sched, wantSched) {
					t.Fatalf("%d messages, trial %d position %v: dense (%v, %v), map (%v, %v)", msgs, trial, idx, ok, sched, wantOK, wantSched)
				}
				positions++
				k := 0
				for ; k < len(idx); k++ {
					if idx[k]++; idx[k] < len(sc.paths[k]) {
						break
					}
					idx[k] = 0
				}
				if k == len(idx) {
					break
				}
			}
		}
	}
	if sound == 0 || sound == trials || multi < 60 || valid == 0 || valid == positions || len(sc.ids.slots) <= 64 {
		t.Fatalf("%d of %d sound, %d multi-sequence searches, %d of %d positions valid, %d id slots: the mix is not exercised",
			sound, trials, multi, valid, positions, len(sc.ids.slots))
	}
	t.Logf("%d of %d sound, %d searches turned the odometer, %d of %d positions valid, %d id slots",
		sound, trials, multi, valid, positions, len(sc.ids.slots))
}
