package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"lmc/internal/codec"
	"lmc/internal/model"
	"lmc/internal/protocols/onepaxos"
	"lmc/internal/protocols/paxos"
)

// handlerInputs wraps a machine and keeps every state a handler was given,
// so a test can count the distinct copies a run made. Holding them also
// keeps the collector from handing a dead copy's address to a fresh one.
type handlerInputs struct {
	model.Machine
	mu   sync.Mutex
	seen map[model.State]struct{}
}

func (h *handlerInputs) note(s model.State) {
	h.mu.Lock()
	h.seen[s] = struct{}{}
	h.mu.Unlock()
}

func (h *handlerInputs) HandleMessage(n model.NodeID, s model.State, m model.Message) (model.State, []model.Message) {
	h.note(s)
	return h.Machine.HandleMessage(n, s, m)
}

func (h *handlerInputs) HandleAction(n model.NodeID, s model.State, a model.Action) (model.State, []model.Message) {
	h.note(s)
	return h.Machine.HandleAction(n, s, a)
}

// checkVisitedIntact fails if a visited state no longer encodes to the
// fingerprint it was stored under: what a recycled copy that had entered a
// space would look like once the next handler's copy overwrote it.
func checkVisitedIntact(t *testing.T, name string, c *checker) {
	t.Helper()
	for n, sp := range c.spaces {
		for i, ns := range sp.states {
			if got := codec.HashOf(ns.state); got != ns.fp {
				t.Fatalf("%s: node %d state %d (%s) encodes to %v, stored as %v", name, n, i, ns.state, got, ns.fp)
			}
		}
	}
}

// TestRecycledCopiesNeverPublished runs the benchmark's explore-opt input
// (1Paxos from its live state, LMC-OPT, the -scale tiny cap) and its bughunt
// input (the §5.5 Paxos bug, first bug) inline and on the pool. Nine in ten
// of explore-opt's transitions land on a visited state, so a run hands out
// far fewer copies than it runs handlers: every copy is a discovery, the one
// spare its run keeps, or a copy a bug's replay made. Every visited state
// must still encode to its fingerprint after the run.
func TestRecycledCopiesNeverPublished(t *testing.T) {
	opm := onepaxos.New(3, onepaxos.NoBug, onepaxos.Driver{})
	opStart, err := onepaxos.PaperLiveState(opm)
	if err != nil {
		t.Fatal(err)
	}
	pm := paxos.New(3, paxos.LastResponseBug, paxos.ActiveIndex{MaxPerNode: 1})
	pStart, err := paxos.PaperLiveState(pm)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		m     model.Machine
		start model.SystemState
		opt   Options
	}{
		{"explore-opt", opm, opStart, Options{Invariant: onepaxos.Agreement(), Reduction: onepaxos.Reduction{},
			MaxTransitions: 20_000}},
		{"bughunt", pm, pStart, Options{Invariant: paxos.Agreement(), Reduction: paxos.Reduction{},
			StopAtFirstBug: true}},
	} {
		for _, workers := range []int{-1, 4} {
			name := fmt.Sprintf("%s/workers=%d", tc.name, workers)
			opt := tc.opt
			opt.Workers = workers
			if workers > 0 && opt.MaxTransitions > 0 {
				// A transition cap keeps the sweeps off the pool; a budget
				// bounds the pool run instead.
				opt.MaxTransitions, opt.Budget = 0, 300*time.Millisecond
			}
			h := &handlerInputs{Machine: tc.m, seen: map[model.State]struct{}{}}
			c := newChecker(context.Background(), h, tc.start, opt)
			c.pass()
			checkVisitedIntact(t, name, c)
			// A confirmed bug's schedule is replayed on copies of its own.
			replayed := 0
			for _, b := range c.res.Bugs {
				replayed += len(b.Schedule)
			}
			st := c.res.Stats
			t.Logf("%s: %d transitions, %d node states, %d replayed events, %d distinct copies",
				name, st.Transitions, st.NodeStates, replayed, len(h.seen))
			if len(h.seen) > st.NodeStates+replayed {
				t.Errorf("%s: handlers ran on %d distinct copies over %d transitions, %d node states and %d replayed events",
					name, len(h.seen), st.Transitions, st.NodeStates, replayed)
			}
		}
	}
}

// keepState is a Recycler whose handler may return a state it keeps.
type keepState struct{ V int }

func (s *keepState) Encode(w *codec.Writer) { w.Int(s.V) }
func (s *keepState) Clone() model.State     { c := *s; return &c }
func (s *keepState) String() string         { return fmt.Sprintf("v%d", s.V) }

func (s *keepState) CloneInto(dst model.State) model.State {
	d, ok := dst.(*keepState)
	if !ok {
		return s.Clone()
	}
	*d = *s
	return d
}

// keepMachine is one node counting to 3. Its actions step up, reject, and
// reset — which returns the machine's own zero state in place of the copy,
// a duplicate of the start state that the machine still holds.
type keepMachine struct{ zero *keepState }

func (keepMachine) Name() string                  { return "keep" }
func (keepMachine) NumNodes() int                 { return 1 }
func (keepMachine) Init(model.NodeID) model.State { return &keepState{} }
func (keepMachine) HandleMessage(model.NodeID, model.State, model.Message) (model.State, []model.Message) {
	return nil, nil
}

func (keepMachine) Actions(_ model.NodeID, s model.State) []model.Action {
	if s.(*keepState).V >= 3 {
		return []model.Action{stepEvent{Kind: "reset"}, stepEvent{Kind: "reject"}}
	}
	return []model.Action{stepEvent{Kind: "inc"}, stepEvent{Kind: "reject"}, stepEvent{Kind: "reset"}}
}

func (k keepMachine) HandleAction(_ model.NodeID, s model.State, a model.Action) (model.State, []model.Message) {
	switch a.(stepEvent).Kind {
	case "inc":
		st := s.(*keepState)
		st.V++
		return st, nil
	case "reset":
		return k.zero, nil
	default:
		return nil, nil
	}
}

// TestRecyclingSkipsReturnedStates: a copy whose handler rejected is reused,
// but a state a handler returned in place of its copy is not the checker's
// to reuse even when it turns out to be a duplicate — writing the next copy
// into it would change the machine's own zero state. Eleven handler runs
// take eight copies: the rejections at v0, v1 and v2 hand theirs to the
// reset that follows, and the copy a reset was given is dropped with it.
func TestRecyclingSkipsReturnedStates(t *testing.T) {
	k := keepMachine{zero: &keepState{}}
	h := &handlerInputs{Machine: k, seen: map[model.State]struct{}{}}
	c := newChecker(context.Background(), h, model.InitialSystem(k), Options{Workers: -1, LocalBound: 100})
	if !c.pass() {
		t.Fatal("no fixpoint")
	}
	checkVisitedIntact(t, "keep", c)
	if k.zero.V != 0 {
		t.Fatalf("the machine's zero state was overwritten with v%d", k.zero.V)
	}
	st := c.res.Stats
	if st.Transitions != 11 || st.NodeStates != 4 || st.Rejections != 4 || len(h.seen) != 8 {
		t.Fatalf("%d transitions, %d node states, %d rejections, %d distinct copies; want 11, 4, 4 and 8",
			st.Transitions, st.NodeStates, st.Rejections, len(h.seen))
	}
}
