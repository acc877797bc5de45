package onepaxos

import (
	"fmt"
	"math/rand"

	"lmc/internal/codec"
	"lmc/internal/model"
	"lmc/internal/protocols/paxos"
)

// UtilLayer tags the embedded PaxosUtility instance's messages.
const UtilLayer paxos.Tag = "util."

// AcceptReq asks the active acceptor to accept a value for an index. It
// carries the proposing leader's epoch; acceptors refuse stale epochs.
type AcceptReq struct {
	From, To model.NodeID
	Index    int
	Epoch    int
	Value    int
}

// Src implements model.Message.
func (m AcceptReq) Src() model.NodeID { return m.From }

// Dst implements model.Message.
func (m AcceptReq) Dst() model.NodeID { return m.To }

// Encode implements codec.Encoder.
func (m AcceptReq) Encode(w *codec.Writer) {
	w.String("1p.accept-req")
	w.Int(int(m.From))
	w.Int(int(m.To))
	w.Int(m.Index)
	w.Int(m.Epoch)
	w.Int(m.Value)
}

// String implements model.Message.
func (m AcceptReq) String() string {
	return fmt.Sprintf("AcceptReq{%v->%v i=%d e=%d v=%d}", m.From, m.To, m.Index, m.Epoch, m.Value)
}

// Learn1 is the single acceptor's announcement; one Learn1 suffices for a
// learner to choose.
type Learn1 struct {
	From, To model.NodeID
	Index    int
	Epoch    int
	Value    int
}

// Src implements model.Message.
func (m Learn1) Src() model.NodeID { return m.From }

// Dst implements model.Message.
func (m Learn1) Dst() model.NodeID { return m.To }

// Encode implements codec.Encoder.
func (m Learn1) Encode(w *codec.Writer) {
	w.String("1p.learn")
	w.Int(int(m.From))
	w.Int(int(m.To))
	w.Int(m.Index)
	w.Int(m.Epoch)
	w.Int(m.Value)
}

// String implements model.Message.
func (m Learn1) String() string {
	return fmt.Sprintf("Learn1{%v->%v i=%d e=%d v=%d}", m.From, m.To, m.Index, m.Epoch, m.Value)
}

// ProposeValue is the application call: a node believing itself leader
// submits a value for an index directly to its view of the acceptor.
type ProposeValue struct {
	On    model.NodeID
	Index int
	Value int
}

// Node implements model.Action.
func (a ProposeValue) Node() model.NodeID { return a.On }

// Encode implements codec.Encoder.
func (a ProposeValue) Encode(w *codec.Writer) {
	w.String("1p.propose")
	w.Int(int(a.On))
	w.Int(a.Index)
	w.Int(a.Value)
}

// String implements model.Action.
func (a ProposeValue) String() string {
	return fmt.Sprintf("ProposeValue{%v i=%d v=%d}", a.On, a.Index, a.Value)
}

// BecomeLeader is the fault-detector-driven takeover: the node inserts a
// LeaderChange entry for itself into the PaxosUtility (§5.6: "N3 attempts
// to be the leader by inserting a LeaderChange entry into the
// PaxosUtility").
type BecomeLeader struct {
	On model.NodeID
}

// Node implements model.Action.
func (a BecomeLeader) Node() model.NodeID { return a.On }

// Encode implements codec.Encoder.
func (a BecomeLeader) Encode(w *codec.Writer) {
	w.String("1p.become-leader")
	w.Int(int(a.On))
}

// String implements model.Action.
func (a BecomeLeader) String() string { return fmt.Sprintf("BecomeLeader{%v}", a.On) }

// LiveApp is the application of the §5.6 live runs: at each application
// call the node "triggers the fault detector with the probability of 0.1
// to stress the fault tolerance mechanisms of 1Paxos" — here, a non-leader
// attempting a takeover — and a node that believes itself leader proposes
// a value for its next index. The signature matches the sim package's
// AppFunc.
func LiveApp(m *Machine, faultProb float64) func(rng *rand.Rand, n model.NodeID, s model.State) []model.Action {
	if faultProb <= 0 {
		faultProb = 0.1
	}
	return func(rng *rand.Rand, n model.NodeID, s model.State) []model.Action {
		st, ok := s.(*State)
		if !ok {
			return nil
		}
		if st.Leader == n {
			idx, ok := m.nextIndex(st)
			if !ok {
				// All known business settled: open a fresh index, the way
				// the live application keeps the log moving. Two nodes that
				// both believe they lead (the ++ bug plus a lost
				// LeaderChange) will collide on the same fresh index.
				idx = m.freshIndex(st)
			}
			return []model.Action{ProposeValue{On: n, Index: idx, Value: int(n) + 1}}
		}
		if rng.Float64() < faultProb {
			return []model.Action{BecomeLeader{On: n}}
		}
		return nil
	}
}

// Driver gates the actions the checker (or the live application) may
// initiate.
type Driver struct {
	// MaxProposals bounds value propositions per node.
	MaxProposals int
	// MaxTakeovers bounds leadership takeovers per node.
	MaxTakeovers int
}

// Machine adapts 1Paxos to model.Machine.
type Machine struct {
	N      int
	Bug    BugKind
	Driver Driver

	util paxos.Params
}

// New builds a 1Paxos machine over n nodes. Non-positive driver budgets
// mean unlimited: the budgets count lifetime actions (ProposalsMade /
// LeaderAttempts, which a live run's history advances too), so online
// checker runs — whose snapshots arrive with history — must leave them
// open and rely on the checker's per-pass local-event bound instead.
func New(n int, bug BugKind, driver Driver) *Machine {
	return &Machine{
		N:      n,
		Bug:    bug,
		Driver: driver,
		util:   paxos.Params{N: n, Layer: UtilLayer},
	}
}

// Name implements model.Machine.
func (mc *Machine) Name() string {
	if mc.Bug == NoBug {
		return "1paxos"
	}
	return "1paxos-" + mc.Bug.String()
}

// NumNodes implements model.Machine.
func (mc *Machine) NumNodes() int { return mc.N }

// Init implements model.Machine: the §5.6 initialization function. The
// leader is set to the first member; the acceptor is intended to be the
// second — `*(++members.begin())` — but the buggy variant evaluates
// `*(members.begin()++)`, which is the first member again.
func (mc *Machine) Init(model.NodeID) model.State {
	s := &State{Leader: 0, Acceptor: 1}
	if mc.Bug == PlusPlusBug {
		s.Acceptor = 0 // same node as the leader
	}
	return s
}

// HandleMessage implements model.Machine.
func (mc *Machine) HandleMessage(n model.NodeID, s model.State, m model.Message) (model.State, []model.Message) {
	st := s.(*State)
	// Lower layer first: PaxosUtility messages are tagged with UtilLayer.
	if out, ok := paxos.Step(mc.util, n, &st.Util, m); ok {
		out = append(out, mc.applyUtil(n, st)...)
		return st, out
	}
	switch msg := m.(type) {
	case AcceptReq:
		return mc.handleAcceptReq(n, st, msg)
	case Learn1:
		if _, done := st.HasChosen(msg.Index); !done {
			st.SetChosen(msg.Index, msg.Value)
		}
		return st, nil
	default:
		return nil, nil // unknown message: local assertion
	}
}

// handleAcceptReq is the acceptor role: accept when the request's epoch is
// current. The epoch — the count of LeaderChange entries — is the guard
// against deposed leaders; a leader only addresses the node it believes is
// the acceptor, which is exactly the local variable the §5.6 bug corrupts.
func (mc *Machine) handleAcceptReq(n model.NodeID, st *State, m AcceptReq) (model.State, []model.Message) {
	if m.Epoch < st.Epoch {
		return st, nil // stale leader
	}
	if cur, ok := st.acceptedFor(m.Index); ok && m.Epoch <= cur.Epoch {
		return st, nil // already accepted for this index in this epoch
	}
	st.setAccepted(m.Index, acceptedVal{Epoch: m.Epoch, Value: m.Value})
	out := make([]model.Message, 0, mc.N)
	for to := 0; to < mc.N; to++ {
		out = append(out, Learn1{From: n, To: model.NodeID(to),
			Index: m.Index, Epoch: m.Epoch, Value: m.Value})
	}
	return st, out
}

// applyUtil applies newly chosen PaxosUtility entries in log order,
// updating the node's leader/acceptor view. A node that just became leader
// refreshes its acceptor variable from the utility — §5.6: "At this moment,
// it obtains from the PaxosUtility the correct value of the active
// acceptor, which is N2" — and, should the utility name the new leader
// itself as acceptor, installs a backup through another utility entry
// (leader and acceptor must be separate nodes).
func (mc *Machine) applyUtil(n model.NodeID, st *State) []model.Message {
	var out []model.Message
	for {
		v, ok := st.Util.HasChosen(st.UtilApplied)
		if !ok {
			return out
		}
		st.advanceUtil()
		kind, who := DecodeEntry(v)
		switch kind {
		case entryLeader:
			st.applyLeader(who)
			if who == n {
				st.setAcceptor(mc.utilAcceptor(st))
				if st.Acceptor == who {
					backup := mc.pickBackup(who, st.Acceptor)
					out = append(out, mc.utilPropose(n, st, EncodeEntry(entryAcceptor, backup))...)
				}
			}
		case entryAcceptor:
			st.setAcceptor(who)
		}
	}
}

// utilAcceptor reads the active acceptor from the utility's applied log:
// the last AcceptorChange entry, or the deployment's intended initial
// configuration — the second member. (The intended configuration is
// correct; the §5.6 bug only corrupts the locally cached copy computed by
// the node's initialization function.)
func (mc *Machine) utilAcceptor(st *State) model.NodeID {
	acceptor := model.NodeID(1)
	for idx := 0; idx < st.UtilApplied; idx++ {
		if v, ok := st.Util.HasChosen(idx); ok {
			if kind, who := DecodeEntry(v); kind == entryAcceptor {
				acceptor = who
			}
		}
	}
	return acceptor
}

// pickBackup chooses the replacement acceptor.
func (mc *Machine) pickBackup(leader, failed model.NodeID) model.NodeID {
	for i := 0; i < mc.N; i++ {
		cand := model.NodeID(i)
		if cand != leader && cand != failed {
			return cand
		}
	}
	return leader // degenerate single-node system
}

// utilPropose submits a configuration entry to the PaxosUtility at the
// next utility index this node considers free.
func (mc *Machine) utilPropose(n model.NodeID, st *State, value int) []model.Message {
	idx := st.UtilApplied
	for {
		if _, chosen := st.Util.HasChosen(idx); !chosen {
			break
		}
		idx++
	}
	return paxos.DoPropose(mc.util, n, &st.Util, idx, value)
}

// Actions implements model.Machine.
func (mc *Machine) Actions(n model.NodeID, s model.State) []model.Action {
	st := s.(*State)
	var acts []model.Action
	if st.Leader == n &&
		(mc.Driver.MaxProposals <= 0 || st.ProposalsMade < mc.Driver.MaxProposals) {
		if idx, ok := mc.nextIndex(st); ok {
			acts = append(acts, ProposeValue{On: n, Index: idx, Value: int(n) + 1})
		}
	}
	if st.Leader != n &&
		(mc.Driver.MaxTakeovers <= 0 || st.LeaderAttempts < mc.Driver.MaxTakeovers) {
		acts = append(acts, BecomeLeader{On: n})
	}
	return acts
}

// nextIndex picks the index a leader proposes at: the smallest index with
// visible, unchosen activity; index 0 counts as always active, so a node
// that has seen nothing starts the log.
func (mc *Machine) nextIndex(st *State) (int, bool) {
	best := -1
	consider := func(i int) {
		if _, chosen := st.HasChosen(i); chosen {
			return
		}
		if best < 0 || i < best {
			best = i
		}
	}
	consider(0)
	for _, e := range st.Accepted {
		consider(e.Index)
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

// freshIndex is the next log index beyond everything this node has seen.
func (mc *Machine) freshIndex(st *State) int {
	top := -1
	if n := len(st.Accepted); n > 0 {
		top = st.Accepted[n-1].Index
	}
	if n := len(st.Chosen); n > 0 {
		top = max(top, st.Chosen[n-1].Index)
	}
	return top + 1
}

// HandleAction implements model.Machine.
func (mc *Machine) HandleAction(n model.NodeID, s model.State, a model.Action) (model.State, []model.Message) {
	st := s.(*State)
	switch act := a.(type) {
	case ProposeValue:
		if st.Leader != n {
			return nil, nil
		}
		st.countProposal()
		return st, []model.Message{AcceptReq{
			From:  n,
			To:    st.Acceptor,
			Index: act.Index,
			Epoch: st.Epoch,
			Value: act.Value,
		}}
	case BecomeLeader:
		if st.Leader == n {
			return nil, nil
		}
		st.countTakeover()
		return st, mc.utilPropose(n, st, EncodeEntry(entryLeader, n))
	default:
		return nil, nil
	}
}

// SymmetryClasses implements model.Symmetric. Init pins node 0 as the
// initial leader and node 1 as the initial (or, under the ++ bug, shadowed)
// acceptor, so those two are distinguished roles; the remaining nodes start
// as interchangeable bystanders that may later attempt takeovers. The
// Agreement invariant compares Chosen sets pairwise over all node pairs, so
// it is slot-symmetric across any class.
func (mc *Machine) SymmetryClasses() [][]model.NodeID {
	var class []model.NodeID
	for n := 2; n < mc.N; n++ {
		class = append(class, model.NodeID(n))
	}
	return [][]model.NodeID{class}
}
