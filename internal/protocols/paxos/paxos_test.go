package paxos

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"lmc/internal/codec"
	"lmc/internal/model"
	"lmc/internal/testkit"
)

func params() Params { return Params{N: 3} }

// TestBallotOrdering checks the total order on ballots (number first, node
// id as the tie-break) — a property-based check.
func TestBallotOrdering(t *testing.T) {
	f := func(n1, n2 int, a, b uint8) bool {
		x := Ballot{N: n1, Node: model.NodeID(a % 3)}
		y := Ballot{N: n2, Node: model.NodeID(b % 3)}
		switch {
		case x == y:
			return !x.Less(y) && !y.Less(x)
		default:
			return x.Less(y) != y.Less(x) // exactly one direction
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestBallotZero checks the sentinel.
func TestBallotZero(t *testing.T) {
	if !(Ballot{}).Zero() || (Ballot{N: 1}).Zero() {
		t.Fatal("Zero() wrong")
	}
}

// TestHappyPath drives one full proposal to unanimity through the message
// pump: every node must choose the proposed value.
func TestHappyPath(t *testing.T) {
	m := New(3, NoBug, NoDriver{})
	h := testkit.New(m)
	if err := h.Act(Propose{On: 0, Index: 0, Value: 42}); err != nil {
		t.Fatal(err)
	}
	if err := h.Settle(1000); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 3; n++ {
		st := h.State(model.NodeID(n)).(*State)
		if v, ok := st.HasChosen(0); !ok || v != 42 {
			t.Fatalf("node %d: chosen=%v", n, st.Chosen)
		}
	}
}

// TestPromiseRefusesLowerBallot: once promised b2, a b1 Prepare is ignored.
func TestPromiseRefusesLowerBallot(t *testing.T) {
	st := NewState()
	hi := Prepare{header: header{From: 1, To: 0, Index: 0}, Ballot: Ballot{N: 2, Node: 1}, Value: 9}
	lo := Prepare{header: header{From: 2, To: 0, Index: 0}, Ballot: Ballot{N: 1, Node: 2}, Value: 8}
	out, ok := Step(params(), 0, st, hi)
	if !ok || len(out) != 1 {
		t.Fatalf("high prepare not answered: %v", out)
	}
	out, ok = Step(params(), 0, st, lo)
	if !ok || len(out) != 0 {
		t.Fatalf("low prepare should be silently ignored, got %v", out)
	}
	if b, _ := st.promisedFor(0); b != hi.Ballot {
		t.Fatal("promise regressed")
	}
}

// TestPrepareResponseEchoesValue: an acceptor with nothing accepted echoes
// the submitted value — the field the §5.5 bug mis-uses.
func TestPrepareResponseEchoesValue(t *testing.T) {
	st := NewState()
	out, _ := Step(params(), 2, st, Prepare{
		header: header{From: 1, To: 2, Index: 0},
		Ballot: Ballot{N: 1, Node: 1}, Value: 77,
	})
	resp := out[0].(PrepareResponse)
	if !resp.AccBallot.Zero() || resp.Value != 77 {
		t.Fatalf("echo wrong: %+v", resp)
	}
}

// TestPrepareResponseReportsAccepted: an acceptor that accepted reports
// its accepted ballot and value, not the echo.
func TestPrepareResponseReportsAccepted(t *testing.T) {
	st := NewState()
	Step(params(), 2, st, Accept{
		header: header{From: 1, To: 2, Index: 0},
		Ballot: Ballot{N: 1, Node: 1}, Value: 5,
	})
	out, _ := Step(params(), 2, st, Prepare{
		header: header{From: 0, To: 2, Index: 0},
		Ballot: Ballot{N: 2, Node: 0}, Value: 99,
	})
	resp := out[0].(PrepareResponse)
	if resp.AccBallot.Zero() || resp.Value != 5 {
		t.Fatalf("accepted value not reported: %+v", resp)
	}
}

// TestValueSelectionCorrectVsBuggy reproduces the §5.5 difference at the
// unit level: majority completes with an echo response; the correct rule
// adopts the previously accepted value, the buggy rule adopts the echo.
func TestValueSelectionCorrectVsBuggy(t *testing.T) {
	run := func(bug BugKind) int {
		p := Params{N: 3, Bug: bug}
		st := NewState()
		st.setProposal(0, proposal{
			Ballot: Ballot{N: 2, Node: 1},
			Value:  2,
		})
		// First response: self, carrying a previously accepted value 1.
		Step(p, 1, st, PrepareResponse{
			header: header{From: 1, To: 1, Index: 0},
			Ballot: Ballot{N: 2, Node: 1}, AccBallot: Ballot{N: 1, Node: 0}, Value: 1,
		})
		// Majority-completing response: an echo of the proposer's value 2.
		out, _ := Step(p, 1, st, PrepareResponse{
			header: header{From: 2, To: 1, Index: 0},
			Ballot: Ballot{N: 2, Node: 1}, Value: 2,
		})
		if len(out) != 3 {
			t.Fatalf("no Accept broadcast: %v", out)
		}
		return out[0].(Accept).Value
	}
	if v := run(NoBug); v != 1 {
		t.Fatalf("correct rule picked %d, want the accepted value 1", v)
	}
	if v := run(LastResponseBug); v != 2 {
		t.Fatalf("buggy rule picked %d, want the last response's value 2", v)
	}
}

// TestDuplicateResponseIgnored: the same responder cannot count twice
// toward the majority.
func TestDuplicateResponseIgnored(t *testing.T) {
	p := params()
	st := NewState()
	st.setProposal(0, proposal{
		Ballot: Ballot{N: 1, Node: 0},
		Value:  7,
	})
	resp := PrepareResponse{
		header: header{From: 1, To: 0, Index: 0},
		Ballot: Ballot{N: 1, Node: 0}, Value: 7,
	}
	Step(p, 0, st, resp)
	out, _ := Step(p, 0, st, resp)
	if len(out) != 0 {
		t.Fatal("duplicate response triggered the majority")
	}
	if prop, _ := st.proposalFor(0); len(prop.Promises) != 1 {
		t.Fatal("duplicate recorded")
	}
}

// TestLearnerMajority: a learner chooses only after a majority of distinct
// acceptors announce the same ballot.
func TestLearnerMajority(t *testing.T) {
	p := params()
	st := NewState()
	learn := func(from model.NodeID) {
		Step(p, 0, st, Learn{
			header: header{From: from, To: 0, Index: 0},
			Ballot: Ballot{N: 1, Node: 0}, Value: 9,
		})
	}
	learn(1)
	if _, ok := st.HasChosen(0); ok {
		t.Fatal("chose on a single learn")
	}
	learn(1) // duplicate acceptor
	if _, ok := st.HasChosen(0); ok {
		t.Fatal("chose on duplicate learns")
	}
	learn(2)
	if v, ok := st.HasChosen(0); !ok || v != 9 {
		t.Fatal("did not choose on a majority")
	}
}

// TestLearnerKeepsFirstChoice: the first decision sticks.
func TestLearnerKeepsFirstChoice(t *testing.T) {
	p := params()
	st := NewState()
	for _, from := range []model.NodeID{1, 2} {
		Step(p, 0, st, Learn{header: header{From: from, To: 0, Index: 0},
			Ballot: Ballot{N: 1, Node: 0}, Value: 9})
	}
	for _, from := range []model.NodeID{1, 2} {
		Step(p, 0, st, Learn{header: header{From: from, To: 0, Index: 0},
			Ballot: Ballot{N: 2, Node: 1}, Value: 4})
	}
	if v, _ := st.HasChosen(0); v != 9 {
		t.Fatalf("choice overwritten: %d", v)
	}
}

// TestCloneIndependence: a clone shares its collections with the original
// and carries its fingerprint, yet mutating it — through the mutators, the
// only writers — never leaks into the original: the original's encoded bytes
// and fingerprint stay, and the clone's carried fingerprint is the hash of
// what it now encodes. Property-based over random mutation sequences.
func TestCloneIndependence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		st := randomState(rng)
		fpBefore, bytesBefore := model.StateFingerprint(st), testkit.Encoding(st)
		c := st.Clone().(*State)
		if model.StateFingerprint(c) != fpBefore {
			return false
		}
		for i := rng.Intn(3); i >= 0; i-- {
			mutate(rng, c)
		}
		if model.StateFingerprint(st) != fpBefore || !bytes.Equal(testkit.Encoding(st), bytesBefore) ||
			model.StateFingerprint(c) != codec.Hash(testkit.Encoding(c)) || model.StateFingerprint(c) == fpBefore {
			return false
		}
		// And the other way round: the original written after the clone was
		// taken does not show in the clone.
		cloneBytes := testkit.Encoding(c)
		mutate(rng, st)
		return bytes.Equal(testkit.Encoding(c), cloneBytes) && model.StateFingerprint(st) == codec.Hash(testkit.Encoding(st))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPutKeepsOrderAndSharing holds the one collection every per-index field
// of a State (and of a 1Paxos state) is: Put keeps entries ascending by index
// whatever the order of writes, replaces in place of the old entry, never
// writes the array it was handed, and clears the carried fingerprint; PutNew
// does none of that when the index already holds the value.
func TestPutKeepsOrderAndSharing(t *testing.T) {
	var c []At[int]
	memo := codec.Fingerprint(7)
	for _, i := range []int{4, 1, 9, 1, 6} {
		before, shared := slices.Clone(c), c
		memo = 7
		Put(&c, &memo, i, 10*i)
		if memo != 0 || !slices.Equal(shared, before) {
			t.Fatalf("Put(%d): memo %v, array handed in now %v (was %v)", i, memo, shared, before)
		}
	}
	if want := []At[int]{{1, 10}, {4, 40}, {6, 60}, {9, 90}}; !slices.Equal(c, want) {
		t.Fatalf("collection %v, want %v", c, want)
	}
	if v, ok := Lookup(c, 6); !ok || v != 60 {
		t.Fatalf("Lookup(6) = %d, %v", v, ok)
	}
	if _, ok := Lookup(c, 5); ok {
		t.Fatal("Lookup(5) found an entry")
	}
	memo, held := 7, c
	PutNew(&c, &memo, 4, 40)
	if memo != 7 || &c[0] != &held[0] {
		t.Fatalf("PutNew of the value already held: memo %v, rebuilt=%v", memo, &c[0] != &held[0])
	}
	PutNew(&c, &memo, 4, 41)
	if memo != 0 || c[1].Value != 41 || len(c) != 4 || held[1].Value != 40 {
		t.Fatalf("PutNew of a new value: memo %v, collection %v, the one before %v", memo, c, held)
	}
	PutNew(&c, &memo, 5, 0)
	if len(c) != 5 || c[2] != (At[int]{5, 0}) {
		t.Fatalf("PutNew of a zero value at a fresh index: %v", c)
	}
}

// TestEncodeDeterministic: repeated encodings of one state agree, and a
// clone encodes identically — property-based.
func TestEncodeDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		st := randomState(rng)
		var w1, w2, w3 codec.Writer
		st.Encode(&w1)
		st.Encode(&w2)
		st.Clone().Encode(&w3)
		return reflect.DeepEqual(w1.Bytes(), w2.Bytes()) &&
			reflect.DeepEqual(w1.Bytes(), w3.Bytes())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// referenceEncode writes st the way the former map-backed State did:
// collect every collection into a map, sort the keys, write in key order.
// Encode's sorted-slice walk must stay byte-identical to this — the
// encoding is fingerprint-critical, and a silent divergence would split the
// visited-state space across binary versions.
func referenceEncode(st *State, w *codec.Writer) {
	w.Int(st.ProposalsMade)

	props := map[int]proposal{}
	for _, e := range st.Proposals {
		props[e.Index] = e.Value
	}
	idxs := make([]int, 0, len(props))
	for i := range props {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	w.Uint32(uint32(len(idxs)))
	for _, i := range idxs {
		p := props[i]
		w.Int(i)
		p.Ballot.Encode(w)
		w.Int(p.Value)
		w.Bool(p.Accepting)
		resps := map[int]promiseInfo{}
		for _, pe := range p.Promises {
			resps[int(pe.Node)] = pe.Info
		}
		ns := make([]int, 0, len(resps))
		for n := range resps {
			ns = append(ns, n)
		}
		sort.Ints(ns)
		w.Uint32(uint32(len(ns)))
		for _, n := range ns {
			pi := resps[n]
			w.Int(n)
			pi.AccBallot.Encode(w)
			w.Int(pi.Value)
		}
	}

	prom := map[int]Ballot{}
	for _, e := range st.Promised {
		prom[e.Index] = e.Value
	}
	pidxs := make([]int, 0, len(prom))
	for i := range prom {
		pidxs = append(pidxs, i)
	}
	sort.Ints(pidxs)
	w.Uint32(uint32(len(pidxs)))
	for _, i := range pidxs {
		w.Int(i)
		prom[i].Encode(w)
	}

	acc := map[int]accepted{}
	for _, e := range st.Accepted {
		acc[e.Index] = e.Value
	}
	aidxs := make([]int, 0, len(acc))
	for i := range acc {
		aidxs = append(aidxs, i)
	}
	sort.Ints(aidxs)
	w.Uint32(uint32(len(aidxs)))
	for _, i := range aidxs {
		a := acc[i]
		w.Int(i)
		a.Ballot.Encode(w)
		w.Int(a.Value)
	}

	learns := map[int][]learnRecord{}
	for _, e := range st.Learns {
		learns[e.Index] = e.Value
	}
	lidxs := make([]int, 0, len(learns))
	for i := range learns {
		lidxs = append(lidxs, i)
	}
	sort.Ints(lidxs)
	w.Uint32(uint32(len(lidxs)))
	for _, i := range lidxs {
		lrs := learns[i]
		w.Int(i)
		w.Uint32(uint32(len(lrs)))
		for _, lr := range lrs {
			lr.Ballot.Encode(w)
			w.Int(lr.Value)
			accs := make([]int, 0, len(lr.Acceptors))
			for _, n := range lr.Acceptors {
				accs = append(accs, int(n))
			}
			sort.Ints(accs)
			w.Ints(accs)
		}
	}

	chosen := map[int]int{}
	for _, p := range st.Chosen {
		chosen[p.Index] = p.Value
	}
	w.IntMap(chosen)
}

// TestEncodeMatchesReference diffs Encode against the reference encoder
// over random handler-built states — property-based byte-identity.
func TestEncodeMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		st := randomState(rng)
		var got, want codec.Writer
		st.Encode(&got)
		referenceEncode(st, &want)
		return reflect.DeepEqual(got.Bytes(), want.Bytes())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// randomState builds a random-but-valid-looking Paxos node state by
// executing random handler steps.
func randomState(rng *rand.Rand) *State {
	p := params()
	st := NewState()
	for i := 0; i < rng.Intn(30); i++ {
		idx := rng.Intn(3)
		b := Ballot{N: rng.Intn(3) + 1, Node: model.NodeID(rng.Intn(3))}
		switch rng.Intn(4) {
		case 0:
			Step(p, 0, st, Prepare{header: header{From: b.Node, To: 0, Index: idx}, Ballot: b, Value: rng.Intn(5)})
		case 1:
			Step(p, 0, st, Accept{header: header{From: b.Node, To: 0, Index: idx}, Ballot: b, Value: rng.Intn(5)})
		case 2:
			Step(p, 0, st, Learn{header: header{From: model.NodeID(rng.Intn(3)), To: 0, Index: idx}, Ballot: b, Value: rng.Intn(5)})
		case 3:
			DoPropose(p, 0, st, idx, rng.Intn(5))
		}
	}
	return st
}

// mutate applies one random mutation to a state, through its mutators.
func mutate(rng *rand.Rand, st *State) {
	switch rng.Intn(4) {
	case 0:
		st.SetChosen(rng.Intn(3), 99)
	case 1:
		st.setPromised(rng.Intn(3), Ballot{N: 99, Node: 0})
	case 2:
		st.setAccepted(rng.Intn(3), accepted{Ballot: Ballot{N: 99}, Value: 1})
	case 3:
		if p, ok := st.proposalFor(0); ok {
			st.setProposal(0, p.withPromise(2, promiseInfo{Value: 123}))
		} else {
			st.countProposal()
		}
	}
}

// fingerprintWrites are every mutator of State, each over a small domain so
// that PutNew's no-ops (the index already holds the value) come up often.
var fingerprintWrites = []func(rng *rand.Rand, st *State){
	func(_ *rand.Rand, st *State) { st.countProposal() },
	func(rng *rand.Rand, st *State) {
		st.setProposal(rng.Intn(3), proposal{Ballot: Ballot{N: rng.Intn(2) + 1}, Value: rng.Intn(2)})
	},
	func(rng *rand.Rand, st *State) {
		st.setPromised(rng.Intn(3), Ballot{N: rng.Intn(2) + 1, Node: model.NodeID(rng.Intn(2))})
	},
	func(rng *rand.Rand, st *State) {
		st.setAccepted(rng.Intn(3), accepted{Ballot: Ballot{N: rng.Intn(2) + 1}, Value: rng.Intn(2)})
	},
	func(rng *rand.Rand, st *State) {
		i := rng.Intn(3)
		rec := learnRecord{Ballot: Ballot{N: rng.Intn(2) + 1}, Value: rng.Intn(2), Acceptors: []model.NodeID{0}}
		st.setLearns(i, insertRecord(st.learnsFor(i), rec))
	},
	func(rng *rand.Rand, st *State) { st.SetChosen(rng.Intn(3), rng.Intn(2)) },
}

// TestFingerprintResumesAtFirstWrite: Fingerprint re-hashes from the first
// section written since the hash was last taken (State.marks). Over random
// interleavings of every mutator, Fingerprint calls, and Clone and CloneInto
// with either side written afterwards, the fingerprint a state carries after
// every write is the hash of its fresh encoding. The check after a write
// runs on a clone, so that a state goes through several writes between two
// Fingerprint calls of its own.
func TestFingerprintResumesAtFirstWrite(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pool := []*State{randomState(rng), NewState()}
		carriesHash := func(st *State) bool {
			return model.StateFingerprint(st.Clone()) == codec.Hash(testkit.Encoding(st))
		}
		for step := 0; step < 100; step++ {
			st := pool[rng.Intn(len(pool))]
			switch r := rng.Intn(10); {
			case r < 6:
				fingerprintWrites[rng.Intn(len(fingerprintWrites))](rng, st)
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
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestMaxBallotSeen aggregates across all roles.
func TestMaxBallotSeen(t *testing.T) {
	p := params()
	st := NewState()
	if st.MaxBallotSeen(0) != 0 {
		t.Fatal("fresh state has seen a ballot")
	}
	Step(p, 0, st, Prepare{header: header{From: 1, To: 0, Index: 0},
		Ballot: Ballot{N: 4, Node: 1}, Value: 1})
	if st.MaxBallotSeen(0) != 4 {
		t.Fatalf("promised ballot not seen: %d", st.MaxBallotSeen(0))
	}
	if st.MaxBallotSeen(1) != 0 {
		t.Fatal("ballot leaked across indexes")
	}
}

// TestDoProposeUsesFreshBallot: a proposal must outbid everything the node
// has seen for the index.
func TestDoProposeUsesFreshBallot(t *testing.T) {
	p := params()
	st := NewState()
	Step(p, 1, st, Prepare{header: header{From: 0, To: 1, Index: 0},
		Ballot: Ballot{N: 3, Node: 0}, Value: 1})
	out := DoPropose(p, 1, st, 0, 2)
	if len(out) != 3 {
		t.Fatalf("prepare broadcast size %d", len(out))
	}
	b := out[0].(Prepare).Ballot
	if b.N != 4 || b.Node != 1 {
		t.Fatalf("ballot %v, want b4.N2", b)
	}
}

// TestStepRejectsForeignLayer: a layered instance must not consume another
// instance's messages.
func TestStepRejectsForeignLayer(t *testing.T) {
	st := NewState()
	_, ok := Step(Params{N: 3, Layer: "util."}, 0, st, Prepare{
		header: header{Layer: "", From: 1, To: 0, Index: 0},
		Ballot: Ballot{N: 1, Node: 1}, Value: 1,
	})
	if ok {
		t.Fatal("foreign-layer message consumed")
	}
}

// TestPristine distinguishes fresh states from touched ones.
func TestPristine(t *testing.T) {
	st := NewState()
	if !st.Pristine() {
		t.Fatal("fresh state not pristine")
	}
	Step(params(), 0, st, Prepare{header: header{From: 1, To: 0, Index: 0},
		Ballot: Ballot{N: 1, Node: 1}, Value: 1})
	if st.Pristine() {
		t.Fatal("promised state still pristine")
	}
}

// TestAgreementInvariant checks the invariant on hand-built system states.
func TestAgreementInvariant(t *testing.T) {
	inv := Agreement()
	a, b, c := NewState(), NewState(), NewState()
	sys := model.SystemState{a, b, c}
	if inv.Check(sys) != nil {
		t.Fatal("empty system violates agreement")
	}
	a.SetChosen(0, 1)
	b.SetChosen(0, 1)
	if inv.Check(sys) != nil {
		t.Fatal("agreeing choices flagged")
	}
	c.SetChosen(0, 2)
	if inv.Check(sys) == nil {
		t.Fatal("conflicting choices not flagged")
	}
}

// TestReductionConflict checks the LMC-OPT projection semantics.
func TestReductionConflict(t *testing.T) {
	var r Reduction
	mk := func(idx, v int) *State {
		s := NewState()
		s.SetChosen(idx, v)
		return s
	}
	if _, ok := r.Interest(0, NewState()); ok {
		t.Fatal("choiceless state is interesting")
	}
	ia, _ := r.Interest(0, mk(0, 1))
	ib, _ := r.Interest(1, mk(0, 2))
	ic, _ := r.Interest(2, mk(1, 9))
	if !r.Conflict(ia, ib) {
		t.Fatal("conflicting choices not detected")
	}
	if r.Conflict(ia, ic) {
		t.Fatal("disjoint indexes conflict")
	}
	if r.InterestKey(ia) == r.InterestKey(ib) {
		t.Fatal("distinct interests share a key")
	}
	if r.InterestKey(ia) != r.InterestKey(mustInterest(t, r, mk(0, 1))) {
		t.Fatal("equal interests key differently")
	}
}

func mustInterest(t *testing.T, r Reduction, s *State) any {
	t.Helper()
	i, ok := r.Interest(0, s)
	if !ok {
		t.Fatal("expected interesting state")
	}
	return i
}

// TestActiveIndexDriver checks the §4.2 driver's index selection.
func TestActiveIndexDriver(t *testing.T) {
	p := params()
	d := ActiveIndex{}
	st := NewState()
	if props := d.Proposals(p, 0, st); len(props) != 0 {
		t.Fatalf("pristine node proposed without FreshIndexes: %v", props)
	}
	// Activity on index 2 that is not settled: propose there.
	Step(p, 0, st, Prepare{header: header{From: 1, To: 0, Index: 2},
		Ballot: Ballot{N: 1, Node: 1}, Value: 1})
	props := d.Proposals(p, 0, st)
	if len(props) != 1 || props[0].Index != 2 {
		t.Fatalf("driver did not target the unsettled index: %v", props)
	}
	// Fully settle index 2: chosen plus all three acceptors announced.
	for _, from := range []model.NodeID{0, 1, 2} {
		Step(p, 0, st, Learn{header: header{From: from, To: 0, Index: 2},
			Ballot: Ballot{N: 1, Node: 1}, Value: 1})
	}
	if props := d.Proposals(p, 0, st); len(props) != 0 {
		t.Fatalf("driver proposed at a settled index: %v", props)
	}
	fresh := ActiveIndex{FreshIndexes: true}
	props = fresh.Proposals(p, 0, st)
	if len(props) != 1 || props[0].Index != 3 {
		t.Fatalf("fresh-index proposal wrong: %v", props)
	}
}
