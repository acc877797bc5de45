package testkit

import (
	"bytes"
	"fmt"
	"sync"

	"lmc/internal/codec"
	"lmc/internal/model"
)

// Reporter is the part of testing.TB the audit reports through; Errorf must
// be safe for concurrent use (testing.T's is), since checkers run handlers
// on worker goroutines.
type Reporter interface {
	Errorf(format string, args ...any)
}

// Audit wraps m so that every handler execution is held to what a node
// state that shares its collections and carries its fingerprint
// (model.State.Clone, model.Fingerprinter) promises the checkers:
//
//   - the successor's fingerprint, as model.StateFingerprint reports it, is
//     the hash of a fresh encoding of the successor — a mutator that forgot
//     to clear the carried fingerprint fails here;
//   - the handler wrote only to the state it was given: a second clone taken
//     before the call, which shares with the handler's state exactly what
//     the visited state it was cloned from shares, encodes to the same bytes
//     afterwards — a write into a shared backing array fails here;
//   - for a state that can be recycled (model.Recycler), no emitted message
//     points into the state the handler was given: the handler runs again on
//     a third clone, which is then overwritten with the node's initial state
//     the way a checker recycles a copy, and the messages of that second run
//     must encode as they did before the overwrite;
//   - no two different encodings share a 64-bit fingerprint: a shadow map
//     keeps the encoding of every successor state and every emitted message
//     by the fingerprint the checkers dedupe it by (model.StateFingerprint,
//     model.MessageFingerprint), states and messages apart, and a second
//     encoding under a fingerprint already taken is a collision the checkers
//     would have merged silently.
//
// The wrapper declares none of m's optional capabilities (model.Symmetric,
// model.RawReplayer); an audited run is an unreduced one.
func Audit(m model.Machine, t Reporter) model.Machine {
	return auditMachine{m, t, &shadow{states: make(map[codec.Fingerprint]string), msgs: make(map[codec.Fingerprint]string)}}
}

type auditMachine struct {
	model.Machine
	t      Reporter
	shadow *shadow
}

// shadow is the fingerprint → encoding record of an audited machine. Handlers
// run on worker goroutines, so it is guarded.
type shadow struct {
	mu           sync.Mutex
	states, msgs map[codec.Fingerprint]string
}

// record files enc under fp in seen and returns the different encoding
// already filed there, if any.
func (sh *shadow) record(seen map[codec.Fingerprint]string, fp codec.Fingerprint, enc []byte) (string, bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	prev, ok := seen[fp]
	if !ok {
		seen[fp] = string(enc)
		return "", false
	}
	return prev, prev != string(enc)
}

// collisions reports the successor and the emitted messages of one handler
// execution whose fingerprint another encoding already holds.
func (a auditMachine) collisions(event fmt.Stringer, next model.State, nextEnc []byte, out []model.Message) {
	if next != nil {
		fp := model.StateFingerprint(next)
		if prev, clash := a.shadow.record(a.shadow.states, fp, nextEnc); clash {
			a.t.Errorf("%s: %v: fingerprint collision: successor %s (encoding %x) and a state encoded %x share fingerprint %v",
				a.Name(), event, next, nextEnc, prev, fp)
		}
	}
	for _, m := range out {
		var w codec.Writer
		m.Encode(&w)
		fp := model.MessageFingerprint(m)
		if prev, clash := a.shadow.record(a.shadow.msgs, fp, w.Bytes()); clash {
			a.t.Errorf("%s: %v: fingerprint collision: message %s (encoding %x) and a message encoded %x share fingerprint %v",
				a.Name(), event, m, w.Bytes(), prev, fp)
		}
	}
}

func (a auditMachine) HandleMessage(n model.NodeID, s model.State, m model.Message) (model.State, []model.Message) {
	done := a.begin(s, m)
	a.recycled(n, s, m, func(cp model.State) []model.Message { _, out := a.Machine.HandleMessage(n, cp, m); return out })
	next, out := a.Machine.HandleMessage(n, s, m)
	done(next, out)
	return next, out
}

func (a auditMachine) HandleAction(n model.NodeID, s model.State, act model.Action) (model.State, []model.Message) {
	done := a.begin(s, act)
	a.recycled(n, s, act, func(cp model.State) []model.Message { _, out := a.Machine.HandleAction(n, cp, act); return out })
	next, out := a.Machine.HandleAction(n, s, act)
	done(next, out)
	return next, out
}

// recycled runs the handler (run) on a clone of s and then recycles that
// clone, overwriting it with node n's initial state: the messages the run
// emitted must encode the same before and after.
func (a auditMachine) recycled(n model.NodeID, s model.State, event fmt.Stringer, run func(model.State) []model.Message) {
	if _, ok := s.(model.Recycler); !ok {
		return
	}
	init, ok := a.Init(n).(model.Recycler)
	if !ok {
		return
	}
	cp := s.Clone()
	out := run(cp)
	before := encodeAll(out)
	init.CloneInto(cp)
	if !bytes.Equal(encodeAll(out), before) {
		a.t.Errorf("%s: %v on %s emitted a message that points into the state it was given", a.Name(), event, s)
	}
}

func encodeAll(msgs []model.Message) []byte {
	var w codec.Writer
	for _, m := range msgs {
		m.Encode(&w)
	}
	return w.Bytes()
}

// begin takes the witness clone of the handler's input; the returned func
// checks it, the successor and the emitted messages once the handler has run.
func (a auditMachine) begin(s model.State, event fmt.Stringer) func(next model.State, out []model.Message) {
	witness := s.Clone()
	before := Encoding(witness)
	return func(next model.State, out []model.Message) {
		if !bytes.Equal(Encoding(witness), before) {
			a.t.Errorf("%s: %v on %s wrote through to a state that shares its collections", a.Name(), event, witness)
		}
		var enc []byte
		if next != nil {
			enc = Encoding(next)
			if got, want := model.StateFingerprint(next), codec.Hash(enc); got != want {
				a.t.Errorf("%s: %v on %s: the successor %s carries fingerprint %v, its encoding hashes to %v",
					a.Name(), event, witness, next, got, want)
			}
		}
		a.collisions(event, next, enc, out)
	}
}

// Encoding is a fresh canonical encoding of s, whatever fingerprint s
// carries.
func Encoding(s model.State) []byte {
	var w codec.Writer
	s.Encode(&w)
	return w.Bytes()
}
