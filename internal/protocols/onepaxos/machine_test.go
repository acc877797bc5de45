package onepaxos

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"lmc/internal/codec"
	"lmc/internal/model"
	"lmc/internal/protocols/paxos"
	"lmc/internal/testkit"
)

// TestEntryCodec round-trips configuration entries.
func TestEntryCodec(t *testing.T) {
	for _, kind := range []int{entryLeader, entryAcceptor} {
		for n := model.NodeID(0); n < 3; n++ {
			k, who := DecodeEntry(EncodeEntry(kind, n))
			if k != kind || who != n {
				t.Fatalf("round trip failed: %d/%v -> %d/%v", kind, n, k, who)
			}
		}
	}
}

// TestEpochRefusesStaleLeader: an accept request from a deposed epoch is
// ignored — the guard that keeps the correct variant safe.
func TestEpochRefusesStaleLeader(t *testing.T) {
	m := New(3, NoBug, Driver{})
	st := m.Init(1).(*State)
	st.applyLeader(0)
	st.applyLeader(0) // epoch 2
	next, out := m.HandleMessage(1, st.Clone(), AcceptReq{From: 0, To: 1, Index: 0, Epoch: 1, Value: 9})
	if next == nil {
		t.Fatal("stale request rejected as assertion (should be ignored)")
	}
	if len(out) != 0 {
		t.Fatal("stale request accepted")
	}
	if _, ok := next.(*State).acceptedFor(0); ok {
		t.Fatal("stale request recorded")
	}
}

// TestAcceptBroadcastsLearn: a current-epoch accept reaches every learner.
func TestAcceptBroadcastsLearn(t *testing.T) {
	m := New(3, NoBug, Driver{})
	st := m.Init(1).(*State)
	next, out := m.HandleMessage(1, st.Clone(), AcceptReq{From: 0, To: 1, Index: 0, Epoch: 0, Value: 9})
	if next == nil || len(out) != 3 {
		t.Fatalf("accept wrong: %v %v", next, out)
	}
	for _, msg := range out {
		l := msg.(Learn1)
		if l.Value != 9 || l.Index != 0 {
			t.Fatalf("learn wrong: %v", l)
		}
	}
}

// TestReacceptOnlyHigherEpoch: an index re-accepts only for a newer epoch.
func TestReacceptOnlyHigherEpoch(t *testing.T) {
	m := New(3, NoBug, Driver{})
	st := m.Init(1).(*State)
	m.HandleMessage(1, st, AcceptReq{From: 0, To: 1, Index: 0, Epoch: 0, Value: 9})
	st.setAccepted(0, acceptedVal{Epoch: 0, Value: 9})
	_, out := m.HandleMessage(1, st.Clone(), AcceptReq{From: 0, To: 1, Index: 0, Epoch: 0, Value: 5})
	if len(out) != 0 {
		t.Fatal("same-epoch re-accept")
	}
	next, out := m.HandleMessage(1, st.Clone(), AcceptReq{From: 2, To: 1, Index: 0, Epoch: 1, Value: 5})
	if acc, _ := next.(*State).acceptedFor(0); len(out) != 3 || acc.Value != 5 {
		t.Fatal("higher-epoch re-accept refused")
	}
}

// TestLearnKeepsFirstChoice mirrors the Paxos learner rule.
func TestLearnKeepsFirstChoice(t *testing.T) {
	m := New(3, NoBug, Driver{})
	st := m.Init(0).(*State)
	m.HandleMessage(0, st, Learn1{From: 1, To: 0, Index: 0, Epoch: 0, Value: 9})
	st.SetChosen(0, 9)
	next, _ := m.HandleMessage(0, st.Clone(), Learn1{From: 1, To: 0, Index: 0, Epoch: 1, Value: 4})
	if v, _ := next.(*State).HasChosen(0); v != 9 {
		t.Fatal("choice overwritten")
	}
}

// TestBecomeLeaderRunsUtilConsensus: a takeover flows through the embedded
// Paxos (PaxosUtility) and updates every node's view.
func TestBecomeLeaderRunsUtilConsensus(t *testing.T) {
	m := New(3, NoBug, Driver{})
	h := testkit.New(m)
	if err := h.Act(BecomeLeader{On: 2}); err != nil {
		t.Fatal(err)
	}
	if err := h.Settle(10000); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 3; n++ {
		st := h.State(model.NodeID(n)).(*State)
		if st.Leader != 2 {
			t.Fatalf("node %d still sees leader %v", n, st.Leader)
		}
		if st.Epoch != 1 {
			t.Fatalf("node %d epoch %d", n, st.Epoch)
		}
	}
	// The utility log of every node holds the LeaderChange entry at index 0.
	st := h.State(0).(*State)
	v, ok := st.Util.HasChosen(0)
	if !ok {
		t.Fatal("utility log empty")
	}
	if kind, who := DecodeEntry(v); kind != entryLeader || who != 2 {
		t.Fatalf("utility entry wrong: %d %v", kind, who)
	}
}

// TestUtilAcceptorDefaultsToSecondMember: with no AcceptorChange entries,
// the deployment's intended configuration (second member) is read.
func TestUtilAcceptorDefaultsToSecondMember(t *testing.T) {
	m := New(3, PlusPlusBug, Driver{})
	st := m.Init(2).(*State)
	if got := m.utilAcceptor(st); got != 1 {
		t.Fatalf("default acceptor %v, want N2", got)
	}
}

// TestProposeValueUsesCachedAcceptor: the fatal path — the proposer
// addresses its cached acceptor variable without consulting the utility.
func TestProposeValueUsesCachedAcceptor(t *testing.T) {
	for _, tc := range []struct {
		bug  BugKind
		want model.NodeID
	}{{NoBug, 1}, {PlusPlusBug, 0}} {
		m := New(3, tc.bug, Driver{})
		st := m.Init(0)
		_, out := m.HandleAction(0, st.Clone(), ProposeValue{On: 0, Index: 0, Value: 1})
		if len(out) != 1 {
			t.Fatalf("%v: no accept request", tc.bug)
		}
		if got := out[0].(AcceptReq).To; got != tc.want {
			t.Fatalf("%v: request addressed to %v, want %v", tc.bug, got, tc.want)
		}
	}
}

// TestActionsGating: only leader-believers propose; only others take over.
func TestActionsGating(t *testing.T) {
	m := New(3, NoBug, Driver{})
	leader := m.Init(0).(*State) // believes leader (L=N1 on node 0)
	acts := m.Actions(0, leader)
	if len(acts) != 1 {
		t.Fatalf("leader actions: %v", acts)
	}
	if _, ok := acts[0].(ProposeValue); !ok {
		t.Fatalf("leader's action is %T", acts[0])
	}
	follower := m.Init(1).(*State)
	acts = m.Actions(1, follower)
	if len(acts) != 1 {
		t.Fatalf("follower actions: %v", acts)
	}
	if _, ok := acts[0].(BecomeLeader); !ok {
		t.Fatalf("follower's action is %T", acts[0])
	}
}

// TestNextIndexSkipsChosen: leaders move past decided indexes.
func TestNextIndexSkipsChosen(t *testing.T) {
	m := New(3, NoBug, Driver{})
	st := m.Init(0).(*State)
	if idx, ok := m.nextIndex(st); !ok || idx != 0 {
		t.Fatalf("fresh leader should start the log: %d %v", idx, ok)
	}
	st.SetChosen(0, 3)
	if _, ok := m.nextIndex(st); ok {
		t.Fatal("no unfinished business should yield no proposal")
	}
	st.setAccepted(1, acceptedVal{Epoch: 0, Value: 2})
	if idx, ok := m.nextIndex(st); !ok || idx != 1 {
		t.Fatalf("accepted-but-unchosen index not targeted: %d %v", idx, ok)
	}
}

// TestUnknownMessageAsserted: foreign messages are local assertions.
func TestUnknownMessageAsserted(t *testing.T) {
	m := New(3, NoBug, Driver{})
	stray := paxos.Prepare{} // zero-layer paxos message, not the util layer
	if next, _ := m.HandleMessage(0, m.Init(0), stray); next != nil {
		t.Fatal("stray message accepted")
	}
}

// TestStateCloneEncodeAgree: clones encode identically and independently —
// a clone shares its collections with the original and carries its
// fingerprint; a write through any mutator, this layer's or the embedded
// utility's, leaves the original's bytes alone and the clone carrying the
// hash of what it now encodes.
func TestStateCloneEncodeAgree(t *testing.T) {
	m := New(3, NoBug, Driver{})
	live, err := PaperLiveState(m)
	if err != nil {
		t.Fatal(err)
	}
	mutations := map[string]func(*State){
		"SetChosen":     func(c *State) { c.SetChosen(77, 1) },
		"setAccepted":   func(c *State) { c.setAccepted(0, acceptedVal{Epoch: 9, Value: 9}) },
		"applyLeader":   func(c *State) { c.applyLeader(1) },
		"setAcceptor":   func(c *State) { c.setAcceptor(c.Acceptor + 1) },
		"advanceUtil":   func(c *State) { c.advanceUtil() },
		"countProposal": func(c *State) { c.countProposal() },
		"countTakeover": func(c *State) { c.countTakeover() },
		"utility": func(c *State) {
			paxos.DoPropose(m.util, 0, &c.Util, 5, 1)
		},
	}
	for n, s := range live {
		for name, mutate := range mutations {
			fp, before := model.StateFingerprint(s), testkit.Encoding(s)
			c := s.Clone()
			if model.StateFingerprint(c) != fp {
				t.Fatalf("node %d clone fingerprint differs", n)
			}
			mutate(c.(*State))
			if model.StateFingerprint(c) == model.StateFingerprint(s) {
				t.Fatalf("node %d %s: clone aliases original", n, name)
			}
			if !bytes.Equal(testkit.Encoding(s), before) || model.StateFingerprint(s) != fp {
				t.Fatalf("node %d %s: the write reached the original", n, name)
			}
			if got, want := model.StateFingerprint(c), codec.Hash(testkit.Encoding(c)); got != want {
				t.Fatalf("node %d %s: clone carries fingerprint %v, its encoding hashes to %v", n, name, got, want)
			}
		}
	}
}

// TestFingerprintResumesAtFirstWrite is paxos's test of the same name for
// the layered state: this layer's hash carries on from the utility's, which
// itself resumes at the first utility section written. Random interleavings
// of both layers' mutators, Fingerprint calls, and Clone and CloneInto with
// either side written afterwards leave every state carrying the hash of its
// fresh encoding after every write.
func TestFingerprintResumesAtFirstWrite(t *testing.T) {
	m := New(3, NoBug, Driver{})
	live, err := PaperLiveState(m)
	if err != nil {
		t.Fatal(err)
	}
	writes := []func(rng *rand.Rand, st *State){
		func(rng *rand.Rand, st *State) { st.applyLeader(model.NodeID(rng.Intn(3))) },
		func(rng *rand.Rand, st *State) { st.setAcceptor(model.NodeID(rng.Intn(3))) },
		func(_ *rand.Rand, st *State) { st.advanceUtil() },
		func(_ *rand.Rand, st *State) { st.countProposal() },
		func(_ *rand.Rand, st *State) { st.countTakeover() },
		func(rng *rand.Rand, st *State) {
			st.setAccepted(rng.Intn(3), acceptedVal{Epoch: rng.Intn(2), Value: rng.Intn(2)})
		},
		func(rng *rand.Rand, st *State) { st.SetChosen(rng.Intn(3), rng.Intn(2)) },
		// The utility's sections: a proposition writes the proposer's, a
		// Prepare from another node the acceptor's, and a choice the
		// learner's.
		func(rng *rand.Rand, st *State) { paxos.DoPropose(m.util, 0, &st.Util, rng.Intn(3), rng.Intn(2)) },
		func(rng *rand.Rand, st *State) {
			other, i := paxos.NewState(), rng.Intn(3)
			for k := rng.Intn(3); k > 0; k-- {
				paxos.DoPropose(m.util, 1, other, i, 0)
			}
			paxos.Step(m.util, 0, &st.Util, paxos.DoPropose(m.util, 1, other, i, 0)[0])
		},
		func(rng *rand.Rand, st *State) { st.Util.SetChosen(rng.Intn(3), rng.Intn(2)) },
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pool := []*State{live[0].Clone().(*State), live[1].Clone().(*State), live[2].Clone().(*State)}
		carriesHash := func(st *State) bool {
			return model.StateFingerprint(st.Clone()) == codec.Hash(testkit.Encoding(st))
		}
		for step := 0; step < 100; step++ {
			st := pool[rng.Intn(len(pool))]
			switch r := rng.Intn(10); {
			case r < 6:
				writes[rng.Intn(len(writes))](rng, st)
				if !carriesHash(st) {
					return false
				}
			case r < 8:
				st.Fingerprint()
			case r < 9 && len(pool) < 6:
				pool = append(pool, st.Clone().(*State))
			default:
				st.CloneInto(pool[rng.Intn(len(pool))])
			}
		}
		for _, st := range pool {
			if st.Fingerprint() != codec.Hash(testkit.Encoding(st)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
