package sim_test

import (
	"math/rand"
	"testing"

	"lmc/internal/model"
	"lmc/internal/protocols/paxos"
	"lmc/internal/sim"
	"lmc/internal/simnet"
)

func newPaxosSim(seed int64, drop float64) (*paxos.Machine, *sim.Sim) {
	m := paxos.New(3, paxos.NoBug, paxos.NoDriver{})
	s := sim.New(sim.Config{
		Machine:   m,
		Net:       simnet.Config{Seed: seed, DropProb: drop},
		Seed:      seed + 1,
		AppPeriod: 30,
		App:       paxos.LiveApp(m.P),
	})
	return m, s
}

// TestLosslessRunDecides: with no loss, live Paxos decides values.
func TestLosslessRunDecides(t *testing.T) {
	_, s := newPaxosSim(3, 0)
	s.RunUntil(300)
	chosen := 0
	for n := 0; n < 3; n++ {
		st := s.State(model.NodeID(n)).(*paxos.State)
		chosen += len(st.Chosen)
	}
	if chosen == 0 {
		t.Fatalf("no decisions after 300 s: %+v", s.Stats)
	}
	if s.Stats.Deliveries == 0 || s.Stats.AppCalls == 0 {
		t.Fatalf("no activity: %+v", s.Stats)
	}
}

// TestDeterministicReplay: two sims with equal seeds evolve identically.
func TestDeterministicReplay(t *testing.T) {
	_, a := newPaxosSim(9, 0.3)
	_, b := newPaxosSim(9, 0.3)
	a.RunUntil(600)
	b.RunUntil(600)
	if a.Snapshot().Fingerprint() != b.Snapshot().Fingerprint() {
		t.Fatal("equal seeds diverged")
	}
	if a.Stats != b.Stats {
		t.Fatalf("stats diverged: %+v vs %+v", a.Stats, b.Stats)
	}
}

// TestSeedsDiffer: different seeds explore different runs.
func TestSeedsDiffer(t *testing.T) {
	_, a := newPaxosSim(1, 0.3)
	_, b := newPaxosSim(2, 0.3)
	a.RunUntil(600)
	b.RunUntil(600)
	if a.Snapshot().Fingerprint() == b.Snapshot().Fingerprint() {
		t.Fatal("different seeds produced identical runs (suspicious)")
	}
}

// TestSnapshotIsolated: mutating a snapshot does not touch the live run.
func TestSnapshotIsolated(t *testing.T) {
	_, s := newPaxosSim(5, 0)
	s.RunUntil(100)
	snap := s.Snapshot()
	before := s.Snapshot().Fingerprint()
	snap[0].(*paxos.State).SetChosen(99, 1)
	if s.Snapshot().Fingerprint() != before {
		t.Fatal("snapshot aliases live state")
	}
}

// TestTimeAdvances: RunUntil moves the clock even with no events.
func TestTimeAdvances(t *testing.T) {
	m := paxos.New(3, paxos.NoBug, paxos.NoDriver{})
	s := sim.New(sim.Config{
		Machine: m,
		Net:     simnet.Config{Seed: 1},
		App: func(*rand.Rand, model.NodeID, model.State) []model.Action {
			return nil
		},
	})
	s.RunUntil(123)
	if s.Now() != 123 {
		t.Fatalf("now=%f", s.Now())
	}
}

// TestDropsReduceDeliveries: a lossy network delivers strictly less.
func TestDropsReduceDeliveries(t *testing.T) {
	_, lossless := newPaxosSim(11, 0)
	_, lossy := newPaxosSim(11, 0.5)
	lossless.RunUntil(600)
	lossy.RunUntil(600)
	if lossy.Network().Dropped == 0 {
		t.Fatal("lossy network dropped nothing")
	}
	if lossy.Stats.Deliveries >= lossless.Stats.Deliveries {
		t.Fatalf("lossy deliveries %d >= lossless %d",
			lossy.Stats.Deliveries, lossless.Stats.Deliveries)
	}
}
