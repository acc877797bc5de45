package core

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"lmc/internal/codec"
	"lmc/internal/model"
)

// stepMachine is a one-node machine whose single handler does what the
// event's kind says, for messages and actions alike: "inc" moves to a new
// state and emits a note, "echo" stays (a visited successor) and emits,
// "idle" stays silently, "zero" goes back to the initial state and emits,
// "reject" rejects. calls counts handler executions.
type stepMachine struct {
	kind  string // the action Actions offers
	calls *int
}

type stepState struct{ V int }

func (s *stepState) Encode(w *codec.Writer) { w.Int(s.V) }
func (s *stepState) Clone() model.State     { c := *s; return &c }
func (s *stepState) String() string         { return fmt.Sprintf("v%d", s.V) }

type stepEvent struct{ Kind string }

func (stepEvent) Src() model.NodeID        { return 0 }
func (stepEvent) Dst() model.NodeID        { return 0 }
func (stepEvent) Node() model.NodeID       { return 0 }
func (e stepEvent) Encode(w *codec.Writer) { w.String(e.Kind) }
func (e stepEvent) String() string         { return e.Kind }

func stepNote(v int) model.Message { return stepEvent{Kind: fmt.Sprintf("note%d", v)} }

func (m stepMachine) Name() string                  { return "step" }
func (m stepMachine) NumNodes() int                 { return 1 }
func (m stepMachine) Init(model.NodeID) model.State { return &stepState{} }

func (m stepMachine) Actions(model.NodeID, model.State) []model.Action {
	return []model.Action{stepEvent{Kind: m.kind}}
}

func (m stepMachine) apply(s model.State, kind string) (model.State, []model.Message) {
	*m.calls++
	st := s.(*stepState)
	switch kind {
	case "inc":
		st.V++
		return st, []model.Message{stepNote(st.V)}
	case "echo":
		return st, []model.Message{stepNote(st.V)}
	case "zero":
		st.V = 0
		return st, []model.Message{stepNote(0)}
	case "idle":
		return st, nil
	}
	return nil, nil
}

func (m stepMachine) HandleMessage(_ model.NodeID, s model.State, msg model.Message) (model.State, []model.Message) {
	return m.apply(s, msg.(stepEvent).Kind)
}

func (m stepMachine) HandleAction(_ model.NodeID, s model.State, a model.Action) (model.State, []model.Message) {
	return m.apply(s, a.(stepEvent).Kind)
}

// TestStep drives the one transition step through both of its callers —
// runActions for an internal action, deliver for a network entry — on a
// worker-replica-shaped log (so the capture is observable) with one hint
// loaded, and checks everything the step is responsible for: the charge, the
// handler executions saved, the registration, the buffered emissions, the
// captured record and the taint.
func TestStep(t *testing.T) {
	s0, s1 := model.StateFingerprint(&stepState{}), model.StateFingerprint(&stepState{V: 1})
	note0 := []codec.Fingerprint{model.MessageFingerprint(stepNote(0))}
	note1 := []codec.Fingerprint{model.MessageFingerprint(stepNote(1))}

	cases := []struct {
		name string
		kind string   // what the handler would do
		hint *outcome // the loaded record's outcome; nil = no hint

		calls      int  // handler executions during the walk
		rejections int  // Stats.Rejections
		news       int  // node states discovered
		back       bool // run on a second visited state, so the visited successor is not the parent
		preds      int  // predecessor edges added to the successor (none without back: a self-edge is not recorded)
		lazy       bool // a fingerprint-only batch was queued
		real       bool // a materialized batch was queued
		captured   outcome
		tainted    bool
		mergeCalls int // handler executions the barrier adds (lazy batches)
	}{
		{name: "no hint", kind: "inc",
			calls: 1, news: 1, real: true, captured: outcome{Succ: s1, Emitted: note1}},
		{name: "no hint, self-loop with a new emission", kind: "echo",
			calls: 1, real: true, captured: outcome{Succ: s0, Emitted: note0}},
		{name: "no hint, rejecting handler", kind: "reject",
			calls: 1, rejections: 1, captured: outcome{Rejected: true}},
		{name: "rejected hint is trusted", kind: "inc", hint: &outcome{Rejected: true},
			rejections: 1, captured: outcome{Rejected: true}},
		{name: "hint to visited successor with emissions", kind: "echo", hint: &outcome{Succ: s0, Emitted: note0},
			lazy: true, captured: outcome{Succ: s0, Emitted: note0}, mergeCalls: 1},
		{name: "hint to visited successor without emissions", kind: "idle", hint: &outcome{Succ: s0},
			captured: outcome{Succ: s0}},
		{name: "hint to visited successor that is not the parent", kind: "zero", hint: &outcome{Succ: s0, Emitted: note0},
			back: true, preds: 1, lazy: true, captured: outcome{Succ: s0, Emitted: note0}, mergeCalls: 1},
		{name: "hint to new successor", kind: "inc", hint: &outcome{Succ: s1, Emitted: note1},
			calls: 1, news: 1, real: true, captured: outcome{Succ: s1, Emitted: note1}},
		{name: "hint lies about the successor", kind: "inc", hint: &outcome{Succ: s1 ^ 1, Emitted: note1},
			calls: 1, news: 1, real: true, captured: outcome{Succ: s1, Emitted: note1}, tainted: true},
		{name: "hint accepts what the handler rejects", kind: "reject", hint: &outcome{Succ: s1},
			calls: 1, rejections: 1, captured: outcome{Rejected: true}, tainted: true},
		{name: "hint lies about a visited successor's emissions", kind: "echo", hint: &outcome{Succ: s0, Emitted: note1},
			lazy: true, captured: outcome{Succ: s0, Emitted: note1}, tainted: true, mergeCalls: 1},
	}
	for _, tc := range cases {
		for _, delivery := range []bool{false, true} {
			name := tc.name + "/action"
			if delivery {
				name = tc.name + "/delivery"
			}
			t.Run(name, func(t *testing.T) {
				calls := 0
				m := stepMachine{kind: tc.kind, calls: &calls}
				c := newChecker(context.Background(), m, model.InitialSystem(m),
					Options{DisableSystemStates: true, Workers: -1})
				c.beginPass()
				s := c.spaces[0].states[0]
				succ := s // the visited successor of the hinted cases
				if tc.back {
					(&nodeRun{c: c, node: 0}).step(s, model.ActEvent(stepEvent{Kind: "inc"}), nil, 0)
					s, calls = c.spaces[0].states[1], 0
				}
				c.log.owners, c.log.owner = 2, ShardOwner(s.fp, 2)

				r := &nodeRun{c: c, node: 0}
				wantEv, wantEntry := model.ActEvent(stepEvent{Kind: tc.kind}), -1
				var wantMsgFP codec.Fingerprint
				if delivery {
					e := c.net.Add(stepEvent{Kind: tc.kind})
					wantEv, wantEntry, wantMsgFP = model.RecvEvent(e.Msg), 0, e.FP
					if tc.hint != nil {
						c.log.load(RoundBatch{Dels: []DeliveryRecord{{Entry: 0, Parent: s.fp,
							Rejected: tc.hint.Rejected, Succ: tc.hint.Succ, Emitted: tc.hint.Emitted}}})
					}
					r.deliver(e, s, 0)
				} else {
					if tc.hint != nil {
						c.log.load(RoundBatch{Acts: []ActionRecord{{Node: 0, Parent: s.fp, Action: 0,
							Rejected: tc.hint.Rejected, Succ: tc.hint.Succ, Emitted: tc.hint.Emitted}}})
					}
					r.runActions(s)
				}

				if calls != tc.calls {
					t.Errorf("handler ran %d times during the walk, want %d", calls, tc.calls)
				}
				// An edge from the successor itself is not recorded; one from
				// another state is, whole, and its event comes back out of it.
				if len(succ.preds) != tc.preds {
					t.Fatalf("successor has %d predecessor edges, want %d", len(succ.preds), tc.preds)
				}
				if tc.preds == 1 {
					p := succ.preds[0]
					if int(p.prev) != s.seq || p.kind != wantEv.Kind || p.msgFP != wantMsgFP || c.event(0, &p) != wantEv ||
						p.eventFP != wantEv.Fingerprint() || !slices.Equal(c.spaces[0].generated(&p), tc.hint.Emitted) {
						t.Errorf("predecessor edge %+v", p)
					}
				}
				var lazy, real bool
				for _, b := range r.emits {
					if b.entry != wantEntry {
						t.Errorf("batch tagged with entry %d, want %d", b.entry, wantEntry)
					}
					if b.lazy != nil {
						lazy = true
						if b.msgs != nil || b.lazy.state != s.state || b.lazy.ev != wantEv {
							t.Errorf("lazy batch %+v", b)
						}
					} else {
						real = true
					}
				}
				if lazy != tc.lazy || real != tc.real || len(r.emits) > 1 {
					t.Errorf("queued batches: lazy=%v real=%v (%d), want lazy=%v real=%v",
						lazy, real, len(r.emits), tc.lazy, tc.real)
				}

				var got outcome
				switch acts, dels := c.log.batch.Acts, c.log.batch.Dels; {
				case delivery && len(dels) == 1 && len(acts) == 0 && dels[0].Entry == 0 && dels[0].Parent == s.fp:
					got = outcome{dels[0].Rejected, dels[0].Succ, dels[0].Emitted}
				case !delivery && len(acts) == 1 && len(dels) == 0 && acts[0].Node == 0 && acts[0].Action == 0 && acts[0].Parent == s.fp:
					got = outcome{acts[0].Rejected, acts[0].Succ, acts[0].Emitted}
				default:
					t.Fatalf("captured %+v", c.log.batch)
				}
				if got.Rejected != tc.captured.Rejected || got.Succ != tc.captured.Succ || !slices.Equal(got.Emitted, tc.captured.Emitted) {
					t.Errorf("captured outcome %+v, want %+v", got, tc.captured)
				}

				netBefore := c.net.Len()
				c.mergePhase([]*nodeRun{r})
				st := c.res.Stats
				if st.Transitions != 1 || st.Rejections != tc.rejections || st.NodeStates != 1+tc.news {
					t.Errorf("transitions=%d rejections=%d nodeStates=%d, want 1, %d, %d",
						st.Transitions, st.Rejections, st.NodeStates, tc.rejections, 1+tc.news)
				}
				if (c.log.taint != nil) != tc.tainted {
					t.Errorf("taint = %v, want tainted=%v", c.log.taint, tc.tainted)
				}
				if calls != tc.calls+tc.mergeCalls {
					t.Errorf("handler ran %d times by the end of the barrier, want %d", calls, tc.calls+tc.mergeCalls)
				}
				if added := c.net.Len() - netBefore; (added == 1) != (tc.lazy || tc.real) {
					t.Errorf("barrier appended %d messages to I+", added)
				} else if added == 1 && !tc.tainted && c.net.Entry(netBefore).FP != tc.captured.Emitted[0] {
					t.Errorf("barrier appended %v to I+, want %v", c.net.Entry(netBefore).FP, tc.captured.Emitted[0])
				}
			})
		}
	}
}
