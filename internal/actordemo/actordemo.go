// Package actordemo is the reference system under test for package
// actorcheck: a small replicated-register commit service written the way
// real actor-style Go code is written — a struct of mutable state, a
// mailbox handler mutating it in place, sends through a context — with no
// knowledge of the model checker beyond the actorcheck interfaces.
//
// The service runs two-phase commit over a register write. Node 0 is the
// coordinator: a BeginCommit application call makes it ask every replica to
// prepare; replicas acknowledge (replicas scripted as refusers reject and
// abort unilaterally), and the coordinator broadcasts whether to apply the
// write — commit only on unanimous acknowledgment. The seeded MajorityBug
// variant applies the write on a mere majority of acknowledgments, so a
// refuser's unilateral abort can disagree with the rest of the cluster —
// the atomicity violation the checkers must find through the adapter.
//
// The protocol is deliberately semantics-identical to the hand-written
// model in internal/protocols/twophase: the two explore isomorphic state
// spaces, which makes "adapter overhead vs. a hand-written model" a fair,
// like-for-like measurement (BenchmarkAdapterAblation, EXPERIMENTS.md A6).
package actordemo

import (
	"fmt"

	"lmc/internal/actorcheck"
	"lmc/internal/codec"
	"lmc/internal/model"
)

// BugKind selects a service variant.
type BugKind int

const (
	// NoBug applies the write only on unanimous acknowledgment.
	NoBug BugKind = iota
	// MajorityBug applies the write on a majority of acknowledgments.
	MajorityBug
)

// String names the variant.
func (b BugKind) String() string {
	if b == MajorityBug {
		return "majority-bug"
	}
	return "correct"
}

// Outcome is a node's verdict on the register write.
type Outcome uint8

const (
	// Pending means undecided.
	Pending Outcome = iota
	// Committed means the write was applied at this node.
	Committed
	// Aborted means the write was abandoned at this node.
	Aborted
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case Committed:
		return "commit"
	case Aborted:
		return "abort"
	default:
		return "pending"
	}
}

// Prepare asks a replica to acknowledge the pending register write. The
// sender travels in the adapter's envelope, so the payload itself is empty.
type Prepare struct{}

// Encode implements codec.Encoder.
func (Prepare) Encode(w *codec.Writer) { w.String("reg.prepare") }

// String implements actorcheck.Payload.
func (Prepare) String() string { return "Prepare{}" }

// Ack is a replica's answer to Prepare.
type Ack struct {
	// OK reports whether the replica acknowledged the write.
	OK bool `json:"ok"`
}

// Encode implements codec.Encoder.
func (a Ack) Encode(w *codec.Writer) {
	w.String("reg.ack")
	w.Bool(a.OK)
}

// String implements actorcheck.Payload.
func (a Ack) String() string { return fmt.Sprintf("Ack{ok=%v}", a.OK) }

// Apply is the coordinator's outcome broadcast.
type Apply struct {
	// Commit reports whether to apply the write.
	Commit bool `json:"commit"`
}

// Encode implements codec.Encoder.
func (a Apply) Encode(w *codec.Writer) {
	w.String("reg.apply")
	w.Bool(a.Commit)
}

// String implements actorcheck.Payload.
func (a Apply) String() string { return fmt.Sprintf("Apply{commit=%v}", a.Commit) }

// BeginCommit is the application call that starts the commit round on the
// coordinator.
type BeginCommit struct{}

// Encode implements codec.Encoder.
func (BeginCommit) Encode(w *codec.Writer) { w.String("reg.begin") }

// String implements actorcheck.Tick.
func (BeginCommit) String() string { return "BeginCommit{}" }

// Register is one node of the service — the real implementation the
// checker explores. Configuration (identity, cluster size, variant,
// scripted refusal) is fixed at construction; everything below the
// "mutable state" marker is the checkable state captured by Snapshot.
type Register struct {
	id      model.NodeID
	n       int
	bug     BugKind
	refuser bool

	// mutable state
	begun   bool         // coordinator: round started
	acked   bool         // replica (and coordinator): acknowledgment cast
	outcome Outcome      // this node's verdict
	oks     map[int]bool // coordinator: acknowledging nodes
	noes    map[int]bool // coordinator: refusing nodes
	decided bool         // coordinator: outcome broadcast
}

// NewRegister constructs node id of an n-node cluster in its initial
// state. A refuser is scripted to reject the write, the way a replica with
// a conflicting local constraint would.
func NewRegister(id model.NodeID, n int, bug BugKind, refuser bool) *Register {
	return &Register{id: id, n: n, bug: bug, refuser: refuser,
		oks: map[int]bool{}, noes: map[int]bool{}}
}

// Snapshot implements actorcheck.Snapshotter with an explicit canonical
// encoding — the mutable state includes maps, so the gob default would not
// be deterministic (codec.IntSet writes them sorted).
func (r *Register) Snapshot() ([]byte, error) {
	w := codec.GetWriter()
	defer codec.PutWriter(w)
	w.Bool(r.begun)
	w.Bool(r.acked)
	w.Byte(byte(r.outcome))
	w.Bool(r.decided)
	w.IntSet(r.oks)
	w.IntSet(r.noes)
	return w.Clone(), nil
}

// Restore implements actorcheck.Snapshotter.
func (r *Register) Restore(blob []byte) error {
	rd := codec.NewReader(blob)
	r.begun = rd.Bool()
	r.acked = rd.Bool()
	r.outcome = Outcome(rd.Byte())
	r.decided = rd.Bool()
	r.oks = intSet(rd.Ints())
	r.noes = intSet(rd.Ints())
	if err := rd.Err(); err != nil {
		return err
	}
	if rd.Remaining() != 0 {
		return fmt.Errorf("actordemo: %d trailing bytes in snapshot", rd.Remaining())
	}
	return nil
}

// intSet rebuilds the map form codec.IntSet consumes.
func intSet(keys []int) map[int]bool {
	m := make(map[int]bool, len(keys))
	for _, k := range keys {
		m[k] = true
	}
	return m
}

// String renders the node's state for traces.
func (r *Register) String() string {
	return fmt.Sprintf("{%s acked=%v}", r.outcome, r.acked)
}

// Ticks implements actorcheck.Actor: the coordinator can start the round
// while it has not yet.
func (r *Register) Ticks() []actorcheck.Tick {
	if r.id == 0 && !r.begun {
		return []actorcheck.Tick{BeginCommit{}}
	}
	return nil
}

// OnTick implements actorcheck.Actor.
func (r *Register) OnTick(ctx actorcheck.Context, t actorcheck.Tick) error {
	if _, ok := t.(BeginCommit); !ok {
		return fmt.Errorf("unknown tick %s", t)
	}
	if r.id != 0 || r.begun {
		return fmt.Errorf("BeginCommit on %v (begun=%v)", r.id, r.begun)
	}
	r.begun = true
	r.acked = true
	r.oks[0] = true // the coordinator acknowledges its own write
	for to := 1; to < r.n; to++ {
		ctx.Send(model.NodeID(to), Prepare{})
	}
	return nil
}

// quorum is the acknowledgment threshold for applying the write.
func (r *Register) quorum() int {
	if r.bug == MajorityBug {
		return r.n/2 + 1
	}
	return r.n
}

// OnMessage implements actorcheck.Actor — the mailbox handler.
func (r *Register) OnMessage(ctx actorcheck.Context, from model.NodeID, p actorcheck.Payload) error {
	switch msg := p.(type) {
	case Prepare:
		if r.id == 0 {
			return fmt.Errorf("coordinator received Prepare")
		}
		if r.acked {
			return nil // duplicate request: the answer is already on the wire
		}
		r.acked = true
		ok := !r.refuser
		if !ok {
			// A refuser abandons the write unilaterally.
			r.outcome = Aborted
		}
		ctx.Send(0, Ack{OK: ok})
		return nil
	case Ack:
		if r.id != 0 || !r.begun {
			return fmt.Errorf("Ack at %v before round start", r.id)
		}
		if r.decided {
			return nil // late acknowledgment after the broadcast
		}
		if msg.OK {
			r.oks[int(from)] = true
		} else {
			r.noes[int(from)] = true
		}
		commit := len(r.oks) >= r.quorum()
		abort := len(r.noes) > 0 && r.bug == NoBug
		allIn := len(r.oks)+len(r.noes) == r.n && len(r.noes) > 0
		if !commit && !abort && !allIn {
			return nil
		}
		r.decided = true
		if commit {
			r.outcome = Committed
		} else {
			r.outcome = Aborted
		}
		for to := 1; to < r.n; to++ {
			ctx.Send(model.NodeID(to), Apply{Commit: commit})
		}
		return nil
	case Apply:
		if r.id == 0 {
			return fmt.Errorf("coordinator received Apply")
		}
		if r.outcome == Pending {
			if msg.Commit {
				r.outcome = Committed
			} else {
				r.outcome = Aborted
			}
		}
		return nil
	default:
		return fmt.Errorf("unknown payload %s", p)
	}
}
