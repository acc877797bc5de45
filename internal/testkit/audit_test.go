package testkit_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"lmc/internal/codec"
	"lmc/internal/model"
	"lmc/internal/testkit"
)

// counterState is a one-field state that carries its fingerprint: the hash
// of its encoding, or — collide set — one constant for every value, the
// 64-bit collision the shadow is there to catch.
type counterState struct {
	V       int
	collide bool
}

func (s *counterState) Encode(w *codec.Writer) { w.Int(s.V) }
func (s *counterState) Clone() model.State     { c := *s; return &c }
func (s *counterState) String() string         { return fmt.Sprintf("v%d", s.V) }
func (s *counterState) Fingerprint() codec.Fingerprint {
	if s.collide {
		return 0xc0111de
	}
	return codec.HashOf(s)
}

type bump struct{}

func (bump) Node() model.NodeID     { return 0 }
func (bump) Encode(w *codec.Writer) { w.String("bump") }
func (bump) String() string         { return "bump" }
func (bump) Src() model.NodeID      { return 0 }
func (bump) Dst() model.NodeID      { return 0 }

// counterMachine is one node whose only action increments the counter.
type counterMachine struct{ collide bool }

func (counterMachine) Name() string                    { return "counter" }
func (counterMachine) NumNodes() int                   { return 1 }
func (m counterMachine) Init(model.NodeID) model.State { return &counterState{collide: m.collide} }
func (counterMachine) Actions(model.NodeID, model.State) []model.Action {
	return []model.Action{bump{}}
}
func (counterMachine) HandleMessage(model.NodeID, model.State, model.Message) (model.State, []model.Message) {
	return nil, nil
}
func (counterMachine) HandleAction(_ model.NodeID, s model.State, _ model.Action) (model.State, []model.Message) {
	st := s.(*counterState)
	st.V++
	return st, []model.Message{bump{}}
}

// reports collects what the audit reports.
type reports struct {
	mu   sync.Mutex
	msgs []string
}

func (r *reports) Errorf(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.msgs = append(r.msgs, fmt.Sprintf(format, args...))
}

func (r *reports) matching(substr string) int {
	n := 0
	for _, m := range r.msgs {
		if strings.Contains(m, substr) {
			n++
		}
	}
	return n
}

// TestAuditReportsFingerprintCollisions: successors with different encodings
// under one fingerprint are reported as a collision, once per clash; the same
// successor reached twice, and the same message emitted again, are not.
func TestAuditReportsFingerprintCollisions(t *testing.T) {
	for _, collide := range []bool{false, true} {
		var r reports
		m := testkit.Audit(counterMachine{collide: collide}, &r)
		s0 := m.Init(0)
		for i := 0; i < 2; i++ { // v1 twice: the same encoding again is no collision
			m.HandleAction(0, s0.Clone(), bump{})
		}
		s1, _ := m.HandleAction(0, s0.Clone(), bump{})
		m.HandleAction(0, s1.Clone(), bump{}) // v2 under v1's fingerprint when collide is set

		want := 0
		if collide {
			want = 1
		}
		if got := r.matching("fingerprint collision"); got != want {
			t.Fatalf("collide=%v: %d collision reports, want %d: %q", collide, got, want, r.msgs)
		}
	}
}
