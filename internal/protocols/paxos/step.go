package paxos

import (
	"slices"

	"lmc/internal/model"
)

// Params configures a Paxos instance: the node set, the layer tag and the
// protocol variant.
type Params struct {
	// N is the number of nodes; nodes 0..N-1 all play all three roles.
	N int
	// Layer tags this instance's messages (empty for a standalone service).
	Layer Tag
	// Bug selects the protocol variant.
	Bug BugKind
}

// Majority is the quorum size.
func (p Params) Majority() int { return p.N/2 + 1 }

// DoPropose executes a proposition by node n for (index, value) on st,
// mutating it: a fresh ballot higher than anything the node has seen is
// picked and Prepare is broadcast to every acceptor (including n itself).
// The returned messages are the broadcast.
func DoPropose(p Params, n model.NodeID, st *State, index, value int) []model.Message {
	b := Ballot{N: st.MaxBallotSeen(index) + 1, Node: n}
	st.setProposal(index, proposal{Ballot: b, Value: value})
	st.countProposal()
	out := make([]model.Message, 0, p.N)
	for to := 0; to < p.N; to++ {
		out = append(out, Prepare{
			header: header{Layer: p.Layer, From: n, To: model.NodeID(to), Index: index},
			Ballot: b,
			Value:  value,
		})
	}
	return out
}

// Step executes the message handler for m on st (mutating it) and returns
// the emitted messages. ok is false when m is not a message of this
// instance (wrong layer or unknown type), in which case st is untouched.
func Step(p Params, n model.NodeID, st *State, m model.Message) (out []model.Message, ok bool) {
	switch msg := m.(type) {
	case Prepare:
		if msg.Layer != p.Layer {
			return nil, false
		}
		return stepPrepare(p, n, st, msg), true
	case PrepareResponse:
		if msg.Layer != p.Layer {
			return nil, false
		}
		return stepPrepareResponse(p, n, st, msg), true
	case Accept:
		if msg.Layer != p.Layer {
			return nil, false
		}
		return stepAccept(p, n, st, msg), true
	case Learn:
		if msg.Layer != p.Layer {
			return nil, false
		}
		stepLearn(p, n, st, msg)
		return nil, true
	default:
		return nil, false
	}
}

// stepPrepare is the acceptor's phase-1b: promise if the ballot is at least
// as high as anything promised, and report the highest accepted value.
func stepPrepare(p Params, n model.NodeID, st *State, m Prepare) []model.Message {
	if cur, ok := st.promisedFor(m.Index); ok && m.Ballot.Less(cur) {
		// A higher promise exists: ignore (no NACK in the modeled variant).
		return nil
	}
	st.setPromised(m.Index, m.Ballot)
	resp := PrepareResponse{
		header: header{Layer: p.Layer, From: n, To: m.From, Index: m.Index},
		Ballot: m.Ballot,
	}
	if acc, ok := st.acceptedFor(m.Index); ok {
		resp.AccBallot = acc.Ballot
		resp.Value = acc.Value
	} else {
		// Nothing accepted: echo the submitted value, the way the
		// implementation checked in §5.5 does ("N3, since had not accepted
		// any value for index ki, responds back by the same value proposed
		// by N2").
		resp.Value = m.Value
	}
	return []model.Message{resp}
}

// stepPrepareResponse is the proposer's phase-2a trigger: on a majority of
// promises, pick the value and broadcast Accept. This is where the §5.5
// bug lives.
func stepPrepareResponse(p Params, n model.NodeID, st *State, m PrepareResponse) []model.Message {
	prop, ok := st.proposalFor(m.Index)
	if !ok || prop.Accepting || m.Ballot != prop.Ballot {
		return nil // stale or duplicate response
	}
	if _, dup := prop.promiseOf(m.From); dup {
		return nil
	}
	prop = prop.withPromise(m.From, promiseInfo{AccBallot: m.AccBallot, Value: m.Value})
	if len(prop.Promises) < p.Majority() {
		st.setProposal(m.Index, prop)
		return nil
	}

	// Majority reached: select the value for the Accept broadcast.
	var value int
	switch p.Bug {
	case LastResponseBug:
		// Injected bug (§5.5): use the submitted value of the last received
		// PrepareResponse — the one that just completed the majority —
		// instead of the value of the highest-numbered accepted response.
		value = m.Value
	default:
		// Correct rule: the value of the PrepareResponse with the highest
		// accepted ballot; the proposer's own value if none accepted.
		value = prop.Value
		var best Ballot
		for _, pe := range prop.Promises {
			if !pe.Info.AccBallot.Zero() && best.Less(pe.Info.AccBallot) {
				best = pe.Info.AccBallot
				value = pe.Info.Value
			}
		}
	}
	prop.Accepting = true
	prop.Value = value
	st.setProposal(m.Index, prop)
	out := make([]model.Message, 0, p.N)
	for to := 0; to < p.N; to++ {
		out = append(out, Accept{
			header: header{Layer: p.Layer, From: n, To: model.NodeID(to), Index: m.Index},
			Ballot: prop.Ballot,
			Value:  value,
		})
	}
	return out
}

// stepAccept is the acceptor's phase-2b: accept if no higher promise, then
// broadcast Learn to every learner.
func stepAccept(p Params, n model.NodeID, st *State, m Accept) []model.Message {
	if cur, ok := st.promisedFor(m.Index); ok && m.Ballot.Less(cur) {
		return nil
	}
	st.setPromised(m.Index, m.Ballot)
	st.setAccepted(m.Index, accepted{Ballot: m.Ballot, Value: m.Value})
	out := make([]model.Message, 0, p.N)
	for to := 0; to < p.N; to++ {
		out = append(out, Learn{
			header: header{Layer: p.Layer, From: n, To: model.NodeID(to), Index: m.Index},
			Ballot: m.Ballot,
			Value:  m.Value,
		})
	}
	return out
}

// stepLearn is the learner: record the announcement and choose once a
// majority of acceptors announced the same ballot. The first choice for an
// index is kept. An announcement already recorded writes nothing.
func stepLearn(p Params, n model.NodeID, st *State, m Learn) {
	recs := st.learnsFor(m.Index)
	at := slices.IndexFunc(recs, func(r learnRecord) bool {
		return r.Ballot == m.Ballot && r.Value == m.Value
	})
	var rec learnRecord
	if at < 0 {
		rec = learnRecord{Ballot: m.Ballot, Value: m.Value, Acceptors: []model.NodeID{m.From}}
		st.setLearns(m.Index, insertRecord(recs, rec))
	} else {
		var added bool
		if rec, added = recs[at].withAcceptor(m.From); added {
			st.setLearns(m.Index, WithEntry(recs, at, true, rec))
		}
	}
	if len(rec.Acceptors) >= p.Majority() {
		if _, done := st.HasChosen(m.Index); !done {
			st.SetChosen(m.Index, m.Value)
		}
	}
}

// insertRecord returns the per-index learn records with rec added, keeping
// them canonically ordered by (ballot, value) so state encoding stays
// deterministic.
func insertRecord(recs []learnRecord, rec learnRecord) []learnRecord {
	at := len(recs)
	for i, r := range recs {
		if rec.Ballot.Less(r.Ballot) || (rec.Ballot == r.Ballot && rec.Value < r.Value) {
			at = i
			break
		}
	}
	return WithEntry(recs, at, false, rec)
}
