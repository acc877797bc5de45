package core

import (
	"context"
	"testing"

	"lmc/internal/model"
	"lmc/internal/protocols/paxos"
)

// buildBugRun replays the §5.5 violating scenario on top of the live state
// and returns the per-node final states plus the schedule.
func buildBugRun(t *testing.T, m model.Machine, live model.SystemState) (model.SystemState, []model.Event) {
	t.Helper()
	sys := live.Clone()
	var sched []model.Event
	apply := func(ev model.Event) []model.Message {
		next, out := ev.Apply(m, sys[ev.Node])
		if next == nil {
			t.Fatalf("bug-run construction: handler rejected %s", ev)
		}
		sys[ev.Node] = next
		sched = append(sched, ev)
		return out
	}
	// N2 proposes value 2 for index 0.
	prepares := apply(model.ActEvent(paxos.Propose{On: 1, Index: 0, Value: 2}))
	if len(prepares) != 3 {
		t.Fatalf("want 3 prepares, got %d", len(prepares))
	}
	// N2 handles its own Prepare; N3 handles its Prepare. (Prepare to N1 lost.)
	var prN2, prN3 model.Message
	for _, p := range prepares {
		switch p.Dst() {
		case 1:
			out := apply(model.RecvEvent(p))
			prN2 = out[0]
		case 2:
			out := apply(model.RecvEvent(p))
			prN3 = out[0]
		}
	}
	// N2 receives its own response first, then N3's (echo v2) — the
	// majority-completing message, triggering the bug.
	apply(model.RecvEvent(prN2))
	accepts := apply(model.RecvEvent(prN3))
	if len(accepts) != 3 {
		t.Fatalf("want 3 accepts, got %d (bug not triggered?)", len(accepts))
	}
	// N2 and N3 accept; each broadcasts Learn.
	var learns []model.Message
	for _, a := range accepts {
		if a.Dst() == 0 {
			continue
		}
		learns = append(learns, apply(model.RecvEvent(a))...)
	}
	// N3 receives the Learns addressed to it.
	for _, l := range learns {
		if l.Dst() == 2 {
			apply(model.RecvEvent(l))
		}
	}
	st := sys[2].(*paxos.State)
	if v, ok := st.HasChosen(0); !ok || v != 2 {
		t.Fatalf("N3 did not choose 2: %s", st.String())
	}
	return sys, sched
}

func TestProbeWitnessDirect(t *testing.T) {
	m := paxos.New(3, paxos.LastResponseBug, paxos.ActiveIndex{MaxPerNode: 1})
	live := PaperLiveState(t, m)
	finals, _ := buildBugRun(t, m, live)

	c := newChecker(context.Background(), m, live, Options{
		MaxPathDepth:        8,
		DisableSystemStates: true,
		MaxTransitions:      20000,
		Workers:             -1,
	})
	c.pass()
	t.Logf("spaces: %d/%d/%d transitions=%d", len(c.spaces[0].states),
		len(c.spaces[1].states), len(c.spaces[2].states), c.res.Stats.Transitions)

	combo := make([]*nodeState, 3)
	for n := 0; n < 3; n++ {
		fp := model.StateFingerprint(finals[n])
		combo[n] = c.spaces[n].lookup(fp)
		if combo[n] == nil {
			t.Fatalf("node %d final state not in explored space (fp=%v): %s",
				n, fp, finals[n].String())
		}
		t.Logf("node %d member found at depth %d seq %d", n, combo[n].depth, combo[n].seq)
	}

	budget := 1 << 20
	var seqs int
	ok, sched := c.isStateSound(combo, witnessPathCap, &budget, &seqs, new(soundScratch))
	t.Logf("isStateSound: ok=%v budgetUsed=%d", ok, 1<<20-budget)
	if !ok {
		for n, ns := range combo {
			t.Logf("node %d creation path:", n)
			for _, e := range creationPath(c.spaces[n], ns) {
				t.Logf("   %s gen=%d", c.event(ns.node, &e).String(), e.genN)
			}
		}
		t.Fatal("known-valid combo rejected")
	}
	t.Logf("schedule:\n%v", sched)
}
