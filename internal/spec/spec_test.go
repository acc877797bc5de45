package spec_test

import (
	"strings"
	"testing"

	"lmc/internal/model"
	"lmc/internal/protocols/tree"
	"lmc/internal/spec"
)

// TestViolate: the violation references the offending system state (states
// are immutable once visited; checkers clone at report time) and renders a
// useful message.
func TestViolate(t *testing.T) {
	m := tree.NewPaperTree()
	sys := model.InitialSystem(m)
	v := spec.Violate("x", sys, "node %d broke", 3)
	if v.System.Fingerprint() != sys.Fingerprint() {
		t.Fatal("violation does not reference the offending system state")
	}
	if !strings.Contains(v.Error(), "node 3 broke") || !strings.Contains(v.Error(), "x") {
		t.Fatalf("unhelpful error: %s", v.Error())
	}
}

// TestInvariantFunc adapts plain functions.
func TestInvariantFunc(t *testing.T) {
	called := 0
	inv := spec.InvariantFunc{InvName: "probe", Fn: func(ss model.SystemState) *spec.Violation {
		called++
		return nil
	}}
	if inv.Name() != "probe" {
		t.Fatal("name lost")
	}
	m := tree.NewPaperTree()
	if inv.Check(model.InitialSystem(m)) != nil || called != 1 {
		t.Fatal("check dispatch broken")
	}
}

// TestLift turns a local invariant into a system one with node attribution.
func TestLift(t *testing.T) {
	li := spec.LocalInvariantFunc{InvName: "no-sent", Fn: func(n model.NodeID, s model.State) string {
		if s.(*tree.State).St == tree.Sent {
			return "sent"
		}
		return ""
	}}
	inv := spec.Lift(li)
	if inv.Name() != "no-sent" {
		t.Fatal("lift renamed the invariant")
	}
	m := tree.NewPaperTree()
	sys := model.InitialSystem(m)
	if inv.Check(sys) != nil {
		t.Fatal("clean system flagged")
	}
	sys[2].(*tree.State).St = tree.Sent
	v := inv.Check(sys)
	if v == nil {
		t.Fatal("violation missed")
	}
	if !strings.Contains(v.Detail, "N3") {
		t.Fatalf("violating node not attributed: %s", v.Detail)
	}
}
