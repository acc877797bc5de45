package actorcheck

import (
	"bytes"
	"fmt"
	"sync"

	"lmc/internal/codec"
	"lmc/internal/model"
)

// Wire tags keeping adapter messages and actions disjoint from each other
// (payload encodings only need to be canonical within the wrapped
// implementation; the tag plus addressing makes the envelope canonical for
// the checker).
const (
	envelopeTag = 0xA1
	tickTag     = 0xA2
)

// Envelope is an intercepted message: a payload captured in flight between
// two actors, addressed for the checker's shared network.
type Envelope struct {
	From, To model.NodeID
	P        Payload
}

// Src implements model.Message.
func (e Envelope) Src() model.NodeID { return e.From }

// Dst implements model.Message.
func (e Envelope) Dst() model.NodeID { return e.To }

// Encode writes the envelope canonically: tag, addressing, then the
// payload's own canonical encoding.
func (e Envelope) Encode(w *codec.Writer) {
	w.Byte(envelopeTag)
	w.Int(int(e.From))
	w.Int(int(e.To))
	e.P.Encode(w)
}

// String renders the envelope for traces.
func (e Envelope) String() string {
	return fmt.Sprintf("%v→%v %s", e.From, e.To, e.P.String())
}

// TickAction lifts an actor's node-local tick to a model.Action.
type TickAction struct {
	N model.NodeID
	T Tick
}

// Node implements model.Action.
func (a TickAction) Node() model.NodeID { return a.N }

// Encode writes the action canonically.
func (a TickAction) Encode(w *codec.Writer) {
	w.Byte(tickTag)
	w.Int(int(a.N))
	a.T.Encode(w)
}

// String renders the action for traces.
func (a TickAction) String() string { return a.T.String() }

// NodeState is an actor's local state as the checker sees it: the canonical
// snapshot bytes, opaque to the exploration machinery. Fingerprinting and
// deduplication run on the blob through the ordinary codec path; decoding
// back to a live actor happens only on demand (Adapter.View) for
// invariants and reductions.
type NodeState struct {
	ad   *Adapter
	node model.NodeID
	blob []byte
}

// Encode implements codec.Encoder.
func (s *NodeState) Encode(w *codec.Writer) { w.Bytes32(s.blob) }

// Clone implements model.State. The blob is immutable by construction
// (handlers run on restored instances, never on the snapshot), so the copy
// is shallow.
func (s *NodeState) Clone() model.State {
	c := *s
	return &c
}

// String renders the state by decoding it back to the actor and using its
// Stringer if it has one; the decode is memoized, so repeated trace
// rendering stays cheap.
func (s *NodeState) String() string {
	if s.ad != nil {
		if a, err := s.ad.View(s.node, s); err == nil {
			if str, ok := a.(fmt.Stringer); ok {
				return str.String()
			}
		}
	}
	return fmt.Sprintf("actor{%v}", codec.Hash(s.blob))
}

// Adapter wraps a Factory of actors as a model.Machine. One adapter checks
// one configured system (name, size, factory); the zero value is unusable —
// construct with New.
type Adapter struct {
	name    string
	n       int
	factory Factory

	// CheckDeterminism, when set before checking starts, re-executes every
	// handler twice from the same snapshot and compares successor blobs and
	// emissions; a mismatch panics with a *DeterminismError. Exploration
	// runs roughly twice as slow under it — it is a conformance mode, not a
	// default.
	CheckDeterminism bool

	// views memoizes blob → decoded actor per (node, fingerprint), shared
	// by invariant and reduction evaluation across worker goroutines.
	views sync.Map

	// reg maps payload/tick type names for witness JSON (witness.go).
	reg registry
}

// New builds an adapter for an n-node system of actors produced by f.
func New(name string, n int, f Factory) *Adapter {
	if n <= 0 {
		panic(fmt.Sprintf("actorcheck: invalid system size %d", n))
	}
	if f == nil {
		panic("actorcheck: nil factory")
	}
	return &Adapter{name: name, n: n, factory: f}
}

// Name implements model.Machine.
func (ad *Adapter) Name() string { return ad.name }

// NumNodes implements model.Machine.
func (ad *Adapter) NumNodes() int { return ad.n }

// Init implements model.Machine: a fresh actor's snapshot. A snapshot
// failure here is a broken Snapshotter contract, not a checkable outcome,
// so it panics.
func (ad *Adapter) Init(n model.NodeID) model.State {
	blob, err := snapshot(ad.factory(n))
	if err != nil {
		panic(fmt.Sprintf("actorcheck: snapshot of initial %v state: %v", n, err))
	}
	return &NodeState{ad: ad, node: n, blob: blob}
}

// restore builds a live actor for node n from snapshot bytes.
func (ad *Adapter) restore(n model.NodeID, blob []byte) (Actor, error) {
	a := ad.factory(n)
	if err := restore(a, blob); err != nil {
		return nil, err
	}
	return a, nil
}

// View decodes a node state back to a live actor for read-only inspection —
// invariants and reductions are written against the implementation's own
// types, not the blob. The result is memoized per (node, fingerprint) and
// shared; callers must not mutate it.
func (ad *Adapter) View(n model.NodeID, s model.State) (Actor, error) {
	st, ok := s.(*NodeState)
	if !ok {
		return nil, fmt.Errorf("actorcheck: %T is not an adapter state", s)
	}
	key := viewKey{n: n, fp: codec.Hash(st.blob)}
	if v, ok := ad.views.Load(key); ok {
		return v.(Actor), nil
	}
	a, err := ad.restore(n, st.blob)
	if err != nil {
		return nil, err
	}
	v, _ := ad.views.LoadOrStore(key, a)
	return v.(Actor), nil
}

type viewKey struct {
	n  model.NodeID
	fp codec.Fingerprint
}

// HandleMessage implements model.Machine: restore the actor, run the real
// OnMessage handler with an intercepting context, snapshot the successor.
func (ad *Adapter) HandleMessage(n model.NodeID, s model.State, m model.Message) (model.State, []model.Message) {
	env, ok := m.(Envelope)
	if !ok || env.To != n {
		return nil, nil
	}
	st, ok := s.(*NodeState)
	if !ok {
		return nil, nil
	}
	return ad.step(n, st.blob, env.String(), func(a Actor, ctx Context) error {
		return a.OnMessage(ctx, env.From, env.P)
	})
}

// Actions implements model.Machine: the actor's enabled ticks.
func (ad *Adapter) Actions(n model.NodeID, s model.State) []model.Action {
	st, ok := s.(*NodeState)
	if !ok {
		return nil
	}
	a, err := ad.View(n, st)
	if err != nil {
		return nil
	}
	ticks := a.Ticks()
	if len(ticks) == 0 {
		return nil
	}
	out := make([]model.Action, len(ticks))
	for i, t := range ticks {
		out[i] = TickAction{N: n, T: t}
	}
	return out
}

// HandleAction implements model.Machine.
func (ad *Adapter) HandleAction(n model.NodeID, s model.State, act model.Action) (model.State, []model.Message) {
	ta, ok := act.(TickAction)
	if !ok || ta.N != n {
		return nil, nil
	}
	st, ok := s.(*NodeState)
	if !ok {
		return nil, nil
	}
	return ad.step(n, st.blob, ta.String(), func(a Actor, ctx Context) error {
		return a.OnTick(ctx, ta.T)
	})
}

// step is one intercepted handler execution: fresh actor, restore, run,
// snapshot. A handler error or a context misuse (out-of-range send) rejects
// the transition — the model-level nil-state local assertion. Under
// CheckDeterminism the execution runs twice and the outcomes must agree.
func (ad *Adapter) step(n model.NodeID, blob []byte, event string, run func(Actor, Context) error) (model.State, []model.Message) {
	next, sent, err := ad.execute(n, blob, run)
	if err != nil {
		return nil, nil
	}
	if ad.CheckDeterminism {
		next2, sent2, err2 := ad.execute(n, blob, run)
		if detail := compareRuns(next, sent, next2, sent2, err2); detail != "" {
			panic(&DeterminismError{Node: n, Event: event, Detail: detail})
		}
	}
	var msgs []model.Message
	if len(sent) > 0 {
		msgs = make([]model.Message, len(sent))
		for i, e := range sent {
			msgs[i] = e
		}
	}
	return &NodeState{ad: ad, node: n, blob: next}, msgs
}

// execute runs one handler on a freshly restored actor and returns the
// successor snapshot and the intercepted sends.
func (ad *Adapter) execute(n model.NodeID, blob []byte, run func(Actor, Context) error) ([]byte, []Envelope, error) {
	a, err := ad.restore(n, blob)
	if err != nil {
		return nil, nil, err
	}
	ob := &outbox{self: n, n: ad.n}
	if err := run(a, ob); err != nil {
		return nil, nil, err
	}
	if ob.err != nil {
		return nil, nil, ob.err
	}
	next, err := snapshot(a)
	if err != nil {
		return nil, nil, err
	}
	return next, ob.sent, nil
}

// compareRuns diffs two executions of the same handler from the same
// snapshot; "" means they agree.
func compareRuns(blob1 []byte, sent1 []Envelope, blob2 []byte, sent2 []Envelope, err2 error) string {
	if err2 != nil {
		return fmt.Sprintf("first run succeeded, second failed: %v", err2)
	}
	if !bytes.Equal(blob1, blob2) {
		return "successor snapshots differ between runs"
	}
	if len(sent1) != len(sent2) {
		return fmt.Sprintf("first run sent %d messages, second %d", len(sent1), len(sent2))
	}
	for i := range sent1 {
		if model.MessageFingerprint(sent1[i]) != model.MessageFingerprint(sent2[i]) {
			return fmt.Sprintf("send %d differs between runs (%s vs %s)", i+1, sent1[i], sent2[i])
		}
	}
	return ""
}

// outbox is the Context implementation handed to handlers: it records the
// sends of one execution.
type outbox struct {
	self model.NodeID
	n    int
	sent []Envelope
	err  error
}

// Self implements Context.
func (o *outbox) Self() model.NodeID { return o.self }

// NumNodes implements Context.
func (o *outbox) NumNodes() int { return o.n }

// Send implements Context. A payload sent to an out-of-range node (or a nil
// payload) fails the whole handler execution rather than being dropped —
// a real implementation that addresses a nonexistent peer is broken, and
// silently losing the send would hide it.
func (o *outbox) Send(to model.NodeID, p Payload) {
	if o.err != nil {
		return
	}
	if int(to) < 0 || int(to) >= o.n {
		o.err = fmt.Errorf("actorcheck: %v sent to out-of-range node %d", o.self, int(to))
		return
	}
	if p == nil {
		o.err = fmt.Errorf("actorcheck: %v sent a nil payload", o.self)
		return
	}
	o.sent = append(o.sent, Envelope{From: o.self, To: to, P: p})
}
