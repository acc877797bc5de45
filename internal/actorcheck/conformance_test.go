// The table-driven adapter conformance suite: every adapter-backed
// implementation in the tree registers here, and future ones follow the
// same pattern — the reusable checks (snapshot round-trip, handler
// determinism) come from conformance.go, and fingerprint stability across
// worker counts runs the full checker at several worker settings and
// demands identical outcomes. Negative cases pin down that the suite
// actually catches the contract violations it exists for.
package actorcheck_test

import (
	"errors"
	"fmt"
	"testing"

	"lmc/internal/actorcheck"
	"lmc/internal/actordemo"
	"lmc/internal/core"
	"lmc/internal/model"
	"lmc/internal/spec"
)

// TestConformanceSuite runs the reusable checks plus cross-worker
// fingerprint stability over every conforming adapter configuration.
func TestConformanceSuite(t *testing.T) {
	cases := []struct {
		name  string
		build func() *actorcheck.Adapter
		inv   func(ad *actorcheck.Adapter) spec.Invariant
	}{
		{
			name:  "gob-counter-ring",
			build: func() *actorcheck.Adapter { return counterAdapter(3) },
			inv: func(*actorcheck.Adapter) spec.Invariant {
				return spec.InvariantFunc{InvName: "true", Fn: func(model.SystemState) *spec.Violation { return nil }}
			},
		},
		{
			name:  "actordemo-correct",
			build: func() *actorcheck.Adapter { return actordemo.NewAdapter(3, actordemo.NoBug, 1) },
			inv:   func(ad *actorcheck.Adapter) spec.Invariant { return actordemo.Atomicity(ad) },
		},
		{
			name:  "actordemo-majority-bug",
			build: func() *actorcheck.Adapter { return actordemo.NewAdapter(4, actordemo.MajorityBug, 2) },
			inv:   func(ad *actorcheck.Adapter) spec.Invariant { return actordemo.Atomicity(ad) },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ad := tc.build()
			if err := actorcheck.CheckSnapshotRoundTrip(ad, 0); err != nil {
				t.Errorf("snapshot round-trip: %v", err)
			}
			if err := actorcheck.CheckHandlerDeterminism(ad, 0); err != nil {
				t.Errorf("handler determinism: %v", err)
			}

			// Fingerprint stability across worker counts: the same space,
			// bugs and state fingerprints whichever way the pool runs.
			run := func(workers int) *core.Result {
				a := tc.build()
				return core.Check(a, model.InitialSystem(a), core.Options{
					Invariant: tc.inv(a), Workers: workers})
			}
			base := run(-1)
			for _, w := range []int{0, 2, 4} {
				got := run(w)
				if base.Stats.NodeStates != got.Stats.NodeStates ||
					base.Stats.Transitions != got.Stats.Transitions ||
					base.Stats.SystemStates != got.Stats.SystemStates ||
					base.Stats.ConfirmedBugs != got.Stats.ConfirmedBugs {
					t.Fatalf("workers=%d diverged:\nseq: %s\ngot: %s",
						w, base.Stats.String(), got.Stats.String())
				}
				for i := range base.Bugs {
					if base.Bugs[i].System.Fingerprint() != got.Bugs[i].System.Fingerprint() {
						t.Fatalf("workers=%d bug %d fingerprint diverged", w, i)
					}
				}
			}
		})
	}
}

// globalSeq is the shared mutable state nondetActor leaks through —
// exactly the kind of bug CheckHandlerDeterminism exists to catch.
var globalSeq int

type nondetActor struct {
	ID int
	N  int
	On bool
}

func (a *nondetActor) Ticks() []actorcheck.Tick {
	if a.ID == 0 && !a.On {
		return []actorcheck.Tick{kick{}}
	}
	return nil
}

func (a *nondetActor) OnTick(ctx actorcheck.Context, _ actorcheck.Tick) error {
	a.On = true
	ctx.Send(model.NodeID((a.ID+1)%a.N), ping{Hop: 1})
	return nil
}

func (a *nondetActor) OnMessage(ctx actorcheck.Context, _ model.NodeID, _ actorcheck.Payload) error {
	globalSeq++ // state outside the snapshot: each execution sees a new value
	ctx.Send(model.NodeID((a.ID+1)%a.N), ping{Hop: globalSeq})
	return nil
}

// TestDeterminismCheckCatchesGlobalState: an actor reading mutable state
// outside its snapshot must be reported as a *DeterminismError naming the
// offending node.
func TestDeterminismCheckCatchesGlobalState(t *testing.T) {
	ad := actorcheck.New("nondet", 2, func(id model.NodeID) actorcheck.Actor {
		return &nondetActor{ID: int(id), N: 2}
	})
	err := actorcheck.CheckHandlerDeterminism(ad, 0)
	var de *actorcheck.DeterminismError
	if !errors.As(err, &de) {
		t.Fatalf("expected *DeterminismError, got %v", err)
	}
}

// driftSnapActor implements Snapshotter with a drifting encoding: every
// Snapshot call includes a counter, so restore+snapshot is never identity.
type driftSnapActor struct {
	ID    int
	taken int
}

func (a *driftSnapActor) Snapshot() ([]byte, error) {
	a.taken++
	return []byte(fmt.Sprintf("drift-%d", a.taken)), nil
}

func (a *driftSnapActor) Restore(blob []byte) error {
	_, err := fmt.Sscanf(string(blob), "drift-%d", &a.taken)
	return err
}

func (a *driftSnapActor) Ticks() []actorcheck.Tick { return nil }
func (a *driftSnapActor) OnTick(actorcheck.Context, actorcheck.Tick) error {
	return fmt.Errorf("no ticks")
}
func (a *driftSnapActor) OnMessage(actorcheck.Context, model.NodeID, actorcheck.Payload) error {
	return nil
}

// TestRoundTripCheckCatchesNonCanonicalSnapshot: a Snapshotter whose
// encoding is not a function of the state must fail the round-trip check.
func TestRoundTripCheckCatchesNonCanonicalSnapshot(t *testing.T) {
	ad := actorcheck.New("drift", 2, func(id model.NodeID) actorcheck.Actor {
		return &driftSnapActor{ID: int(id)}
	})
	if err := actorcheck.CheckSnapshotRoundTrip(ad, 0); err == nil {
		t.Fatal("drifting snapshot passed the round-trip check")
	}
}
