// Package core implements LMC, the paper's local model-checking approach
// (§4, Figures 7–9): the network element is removed from the checker's
// states a priori; each node's local state space is explored independently
// against a single shared, monotonically growing network object I+; system
// states are only materialized temporarily — by Cartesian combination of
// visited node states — for invariant checking; and a preliminary invariant
// violation is confirmed a posteriori by a soundness-verification phase
// that searches the predecessor DAG for a real schedule realizing the
// combination.
//
// The package provides both the general algorithm (LMC-GEN) and the
// invariant-specific optimization (LMC-OPT) selected by supplying a
// spec.Reduction that is also a spec.Keyer.
package core

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"

	"lmc/internal/codec"
	"lmc/internal/model"
	"lmc/internal/obs"
	"lmc/internal/spec"
	"lmc/internal/stats"
	"lmc/internal/trace"
)

// StopReason says why a run ended; the vocabulary is shared with the global
// baseline through the observability layer. See obs.StopReason.
type StopReason = obs.StopReason

// Re-exported stop reasons.
const (
	StopFixpoint    = obs.StopFixpoint
	StopBudget      = obs.StopBudget
	StopTransitions = obs.StopTransitions
	StopCancelled   = obs.StopCancelled
	StopFirstBug    = obs.StopFirstBug
)

// Options configures a run of the local checker.
type Options struct {
	// Invariant is the system-wide safety property. May be nil when only
	// LocalInvariants are checked.
	Invariant spec.Invariant
	// LocalInvariants are node-local properties checked directly on every
	// newly visited node state, with no Cartesian combination (§4,
	// RandTree's disjoint children/siblings example).
	LocalInvariants []spec.LocalInvariant
	// Reduction, when non-nil, enables LMC-OPT: system states are only
	// materialized for combinations whose member interests conflict. LMC-OPT
	// requires it to implement spec.Keyer (InterestKey): node states are
	// grouped, and conflicts decided, by interest key.
	Reduction spec.Reduction

	// Reduce selects the optional reduction of the LMC-GEN sweep: symmetry
	// canonicalization of system-state combinations, for machines declaring
	// model.Symmetric. Off by default; a reduced run finds every violation
	// the unreduced run finds (the diffcheck corpus gates this), while
	// materializing a fraction of the system states.
	Reduce Reductions

	// InitialMessages seeds the shared network I+ before exploration, for
	// callers that capture in-flight messages along with the live state.
	// The paper's online runs seed nothing (messages in flight at snapshot
	// time are simply lost, which is safe).
	InitialMessages []model.Message

	// DupLimit is the number of duplicate copies of an identical message
	// admitted to I+ beyond the first; the paper uses 0 (§4.2).
	DupLimit int

	// LocalBound caps the number of internal-action handler executions per
	// node within one exploration pass (§4.2, "Local events": "in each
	// round we put a bound on the number of local events that each node can
	// execute"). Zero means 1. Budget is granted to node states in
	// discovery order, which favors the live state's own local events.
	LocalBound int
	// LocalBoundStep, when positive, re-runs the exploration from scratch
	// with LocalBound increased by the step whenever the bound actually
	// suppressed an action, until MaxLocalBound or another stop criterion.
	LocalBoundStep int
	// MaxLocalBound caps the iterative-deepening of LocalBound; zero
	// disables the outer loop regardless of LocalBoundStep.
	MaxLocalBound int

	// MaxPathDepth bounds the per-node path length (events executed on one
	// node); 0 means unbounded.
	MaxPathDepth int
	// MaxSystemDepth bounds the total depth (sum of member path lengths)
	// of materialized system states; 0 means unbounded.
	MaxSystemDepth int
	// MaxTransitions bounds handler executions; 0 means unbounded.
	MaxTransitions int
	// Budget bounds wall time; 0 means unbounded.
	Budget time.Duration
	// StopAtFirstBug ends the search at the first confirmed violation.
	StopAtFirstBug bool

	// DisableSystemStates turns off system-state materialization and the
	// checking of Invariant on them (LocalInvariants are still checked),
	// yielding the "LMC-explore" configuration of Figure 13.
	DisableSystemStates bool
	// DisableSoundness skips the a-posteriori soundness verification,
	// yielding the "LMC-system-state" configuration of Figure 13.
	// Preliminary violations, of Invariant and of LocalInvariants alike,
	// are then counted but never confirmed or reported.
	DisableSoundness bool

	// Workers sets the size of the worker pool used for exploration rounds,
	// system-state invariant checking, and speculative soundness
	// confirmation ("the model checking process can be embarrassingly
	// parallelized", §1). Zero auto-detects runtime.NumCPU(); a negative
	// value forces fully sequential execution; a positive value is used
	// as-is. Results are bit-for-bit identical for every setting: workers
	// buffer their discoveries per round and the engine merges them in the
	// canonical sequential order. Exploration phases additionally fall back
	// to the canonical order whenever MaxTransitions is set, so a bounded
	// run truncates at the same transition regardless of Workers.
	Workers int

	// RecordSeries collects per-round progress samples (Figures 10–13).
	RecordSeries bool

	// Checkpoint, when non-nil, receives a RoundCheckpoint at every
	// completed round merge barrier: the round's coordinates, a replica
	// digest, and a counter snapshot. A sink error disables checkpointing
	// for the rest of the run (reported via a KindCheckpoint event); the run
	// itself continues. See roundlog.go and internal/store.
	Checkpoint CheckpointSink
	// Resume, when non-nil, holds the run to the stored rounds of a previous
	// run of the identical spec: after each stored round the replica's
	// digest is verified against the stored one, and a mismatch stops the
	// run with StopResumeDiverged. A resumed run is a verified re-run: it
	// executes every handler a fresh run executes (a node state can be
	// re-reached, never restored) and re-derives everything bit-for-bit,
	// Counters included modulo the wall-clock duration fields. The store
	// buys the proof that this is still the interrupted run, not time.
	Resume ResumeSource
	// Observer receives typed run events: round start/end, pass restarts,
	// system-state batches, soundness calls, preliminary and confirmed
	// violations, and periodic heartbeat snapshots of the counters. Events
	// are buffered per round and flushed at the round's merge barrier on the
	// sequential merge goroutine, so an active observer never runs inside
	// the parallel workers' hot path and cannot perturb the bit-for-bit
	// determinism of parallel runs. Nil disables emission entirely (a single
	// branch per barrier).
	Observer obs.Observer
	// HeartbeatEvery is the minimum wall time between heartbeat events.
	// Zero means one second when an Observer is set; negative disables
	// heartbeats (useful for deterministic event-stream tests). Heartbeats
	// fire at round barriers, so a long round delays the next beat.
	HeartbeatEvery time.Duration
}

// Validate checks the options for configurations that cannot produce a
// meaningful run. CheckContext returns its error; Check panics with it.
//
// A nil Invariant is legal in two documented configurations: when
// LocalInvariants are supplied (node-local properties are checked directly
// on visited node states, with no Cartesian combination — §4's RandTree
// case), and when DisableSystemStates is set (the pure-exploration
// "LMC-explore" configuration of Figure 13). With neither, the run would
// explore and materialize system states but check nothing on them.
//
// Negative bounds are rejected rather than read as "unbounded": a negative
// DupLimit would have I+ refuse every message, and the run would report a
// clean fixpoint having delivered nothing.
func (o *Options) Validate() error {
	if o.Invariant == nil && len(o.LocalInvariants) == 0 && !o.DisableSystemStates {
		return errors.New("core: Options.Invariant is required (or supply LocalInvariants, or set DisableSystemStates for a pure exploration run)")
	}
	if o.DupLimit < 0 {
		return errors.New("core: Options.DupLimit must be >= 0 (a negative limit admits no message to I+, not even a first copy)")
	}
	if o.MaxPathDepth < 0 || o.MaxSystemDepth < 0 || o.MaxTransitions < 0 || o.Budget < 0 {
		return errors.New("core: Options.MaxPathDepth, MaxSystemDepth, MaxTransitions and Budget must be >= 0 (0 means unbounded)")
	}
	if _, keyed := o.Reduction.(spec.Keyer); o.Reduction != nil && !keyed {
		return errors.New("core: Options.Reduction must implement spec.Keyer (InterestKey): LMC-OPT groups node states by interest key")
	}
	return nil
}

// The soundness-verification caps trade completeness of the a-posteriori
// check for bounded cost; the paper accepts the same kind of incompleteness
// ("the search in the limited time budget is incomplete anyway", §4.2).
const (
	// maxPathsPerNode caps the predecessor paths enumerated per node when a
	// combination is confirmed as a soundness call of its own (the
	// combinatorial cost the paper identifies in §5.2).
	maxPathsPerNode = 512
	// witnessPathCap is the same cap inside a witness search, whose budget
	// is shared by many candidate combinations. A state can be reachable by
	// several routes (its predecessor DAG), and a witness may need a route
	// other than the discovery one — e.g. one that includes the handler
	// execution that generated a message the pair consumed.
	witnessPathCap = 8
	// maxSequencesPerCheck caps the path combinations examined per
	// soundness call.
	maxSequencesPerCheck = 1 << 14
	// maxPredecessors caps the predecessor edges recorded per node state,
	// self-edges (never recorded) not counted.
	maxPredecessors = 64

	// parallelThreshold is the Cartesian-product size above which
	// system-state invariant checking fans out across the worker pool; below
	// it the dispatch overhead dominates any gain.
	parallelThreshold = 64

	// roundDeliveryCap bounds the message-handler executions each node
	// performs per exploration round. Late rounds can deliver thousands of
	// I+ entries across a six-figure visited list; uncapped, one such round
	// monopolizes the whole wall-clock budget while every deferred
	// invariant check waits at the round barrier — and a budget-bounded run
	// then stops having explored much and checked nothing. The cap splits
	// giant rounds into bounded slices (each entry resumes from its Applied
	// prefix next round), so checks run at bounded intervals just as they
	// do in the inline sequential formulation. The boundary is structural —
	// a fixed execution count, never wall time — so results stay identical
	// for every worker count.
	roundDeliveryCap = 8192
)

// Bug is a violation confirmed by soundness verification. Schedule is a
// realizable total order of events from the start system state whose final
// state violates the invariant; it has been validated by sequenceValid
// (Figure 9's isSequenceValid) and replayed against the real handlers.
type Bug struct {
	Violation *spec.Violation
	Schedule  trace.Schedule
	// System is the violating system state.
	System model.SystemState
	// Depth is the total depth (sum of member path lengths).
	Depth int
}

// Result reports a finished run.
type Result struct {
	Stats  stats.Counters
	Series *stats.Series
	Bugs   []Bug
	// Complete is true when exploration reached a fixpoint (no new node
	// states, all messages applied everywhere) within the configured
	// bounds, without hitting a transition/time cutoff.
	Complete bool
	// Suppressed is true when the final pass's local-event bound actually
	// suppressed at least one enabled internal action: the fixpoint of a
	// Complete run is then relative to the bound, and a run with a larger
	// bound could reach more states. Differential harnesses use this to
	// tell "explored everything" apart from "explored everything the bound
	// allowed".
	Suppressed bool
	// StopReason says why the run ended: StopFixpoint for a Complete run,
	// otherwise the first stop criterion that fired (budget, transition
	// cap, cancellation, or first confirmed bug). It disambiguates the
	// bool-only Complete signal.
	StopReason StopReason
	// FinalLocalBound is the local-event bound of the last pass.
	FinalLocalBound int
}

// nodeState is one visited local state of one node, the unit the local
// checker stores (the LS sets of Figure 7).
type nodeState struct {
	node  model.NodeID
	state model.State
	fp    codec.Fingerprint
	// seq is the state's index in its node's visited list; the shared
	// network's per-message Applied counters refer to these indexes.
	seq int
	// depth is the length of the first path that reached this state.
	depth int
	// history is the persistent set of delivery-event fingerprints executed
	// along the first path (§4.2, "Duplicate messages": a message is never
	// re-executed on a state whose history already contains it).
	history *historyNode
	// preds records every immediate predecessor edge from another state
	// (Figure 9 line 14); soundness verification walks them backward to
	// enumerate the event sequences that could lead here. preds[0] is the
	// creation edge, the one that discovered the state; following it from
	// state to state back to seq 0 is the creation chain, the only record of
	// the first path (creationEmits reads it, flowOf sums it). An edge names
	// its predecessor by seq, so preds holds no pointer for the collector to
	// trace. An edge from the state to itself — an event that changed
	// nothing, close to half of all transitions on a Paxos-shaped space — is
	// not recorded at all: no path enumeration would follow it (a backward
	// walk never revisits a state on its stack), and the maxPredecessors cap
	// counts preds alone.
	preds []pred
	// flow is the state's flow memo: net consumed-minus-generated counts per
	// message along the creation chain, in the pass's message ids. flowOf
	// (index.go) builds it the first time a witness search asks; nil means
	// nobody has.
	flow *flowMemo
	// actionsDone marks that this state's enabled internal actions have
	// been executed (subject to the local bound).
	actionsDone bool
	// suppressed marks that the local bound suppressed at least one action
	// at this state, so a higher bound could reach more states.
	suppressed bool
	// universal caches a positive checker.universal answer (reduce.go).
	universal bool
	// key is the state's interest-key id in the run's key table (keyTable),
	// given once at the barrier that merged the state; 0 when the state is
	// not interesting or the run has no table.
	key int32
}

// pred is a predecessor edge: the event that produced a state from a prior
// state of the same node, plus exactly the data sequenceValid needs — the
// consumed message fingerprint (network events) and the fingerprints of
// the generated messages (§4.2, "the input to Procedure isSequenceValid is
// the set of sequenced events as well as the set of generated messages by
// each event"). It holds no pointer: prev is the predecessor's seq in the
// same space, the generated fingerprints are a span of the space's pool
// (space.generated), and the event itself is not stored — its kind is here,
// its node is the space's, and src locates its payload, which c.event looks
// up where a schedule is materialized. Seqs and entry indexes are per pass,
// as spaces are. TestPredHasNoPointers holds the layout to 32 bytes.
type pred struct {
	eventFP codec.Fingerprint
	msgFP   codec.Fingerprint // consumed message (network events)
	prev    int32             // the predecessor's seq
	// src is the delivered message's I+ entry index, or the action's slot in
	// the machine's Actions enumeration at the predecessor state.
	src    int32
	genOff uint32 // generated messages: the space's gen[genOff : genOff+genN]
	genN   uint16
	kind   model.EventKind
}

// event rebuilds the edge p of node's space as an event, for counterexample
// reporting: a delivery reads the message off its I+ entry, an action is the
// one at its slot in the enumeration at the predecessor state (the
// enumeration is deterministic, which round-log records rely on as well).
func (c *checker) event(node model.NodeID, p *pred) model.Event {
	ev := model.Event{Kind: p.kind, Node: node}
	if p.kind == model.NetworkEvent {
		ev.Msg = c.net.Entry(int(p.src)).Msg
	} else {
		ev.Act = c.m.Actions(node, c.spaces[node].states[p.prev].state)[p.src]
	}
	return ev
}

// historyNode is a persistent (shared-tail) list of delivered message
// event fingerprints.
type historyNode struct {
	parent *historyNode
	fp     codec.Fingerprint
}

func (h *historyNode) contains(fp codec.Fingerprint) bool {
	for n := h; n != nil; n = n.parent {
		if n.fp == fp {
			return true
		}
	}
	return false
}

// space is the set of visited states of a single node.
type space struct {
	states []*nodeState
	byFP   map[codec.Fingerprint]*nodeState
	// gen pools the generated-message fingerprints of the kept edges, each
	// edge's a span of it (pred.genOff, pred.genN): one pointer-free array
	// instead of a slice per edge. Edges that generated the same list share
	// its span, found through spans (list fingerprint → offset): a Paxos-shaped
	// space keeps hundreds of thousands of edges over a few dozen lists.
	gen   []codec.Fingerprint
	spans map[codec.Fingerprint]uint32

	// chain is the running combination of every visited fingerprint in
	// discovery order. The states list only ever appends within a pass, so
	// replicaDigest reads this instead of re-hashing the whole list each round.
	chain codec.Hasher

	// minProducer indexes creation-edge message emissions: fingerprint → seq
	// of the first state whose creation edge generated it (index.go).
	minProducer map[codec.Fingerprint]int

	// groups buckets interesting states by interest-key id (LMC-OPT). A
	// conflicting pair must come from two groups, but the other nodes of the
	// combination range over all their states — their events are what
	// generated the messages the pair consumed, so restricting them would
	// starve soundness verification of every valid witness.
	groups     map[int32]*interestGroup
	groupOrder []*interestGroup // in order of first member
}

// witnessKey identifies one witness search: the new node state, the peer
// node index, and the conflicting group's key id — or, for a node-local
// violation, -1 minus the local invariant's index. Ids are content-keyed,
// so the key outlives the pass, as witnessed does.
type witnessKey struct {
	fp   codec.Fingerprint
	node int
	key  int32
}

// interestGroup is the bucket of node states sharing one interest key, with
// the members' flow memos transposed for the witness search (index.go).
type interestGroup struct {
	key     int32
	members []*nodeState
	cols    memberColumns
}

func newSpace() *space {
	return &space{
		byFP:        make(map[codec.Fingerprint]*nodeState),
		groups:      make(map[int32]*interestGroup),
		minProducer: make(map[codec.Fingerprint]int),
		spans:       make(map[codec.Fingerprint]uint32),
		chain:       codec.NewHasher(),
	}
}

func (sp *space) add(ns *nodeState) {
	ns.seq = len(sp.states)
	sp.states = append(sp.states, ns)
	sp.byFP[ns.fp] = ns
	sp.chain.Add(ns.fp)
	sp.indexProducers(ns)
}

// classify files an interesting ns in its interest group (LMC-OPT).
func (sp *space) classify(ns *nodeState) {
	if ns.key == 0 {
		return
	}
	g := sp.groups[ns.key]
	if g == nil {
		g = &interestGroup{key: ns.key}
		sp.groups[ns.key] = g
		sp.groupOrder = append(sp.groupOrder, g)
	}
	g.members = append(g.members, ns)
}

func (sp *space) lookup(fp codec.Fingerprint) *nodeState { return sp.byFP[fp] }

// keep points p at the generated-message fingerprints fps of an edge the
// space keeps: at the pool's span of the same list if it has one, else at a
// copy appended to the pool. A handler that emits more messages than a span
// can count is refused loudly rather than truncated.
func (sp *space) keep(p *pred, fps []codec.Fingerprint) {
	if len(fps) > math.MaxUint16 || uint64(len(sp.gen)+len(fps)) > math.MaxUint32 {
		panic(fmt.Sprintf("core: an edge generated %d messages into a pool of %d; a predecessor edge counts at most %d",
			len(fps), len(sp.gen), math.MaxUint16))
	}
	p.genOff, p.genN = 0, uint16(len(fps))
	if len(fps) == 0 {
		return
	}
	list := codec.Combine(fps...)
	if off, ok := sp.spans[list]; ok && slices.Equal(sp.gen[off:min(int(off)+len(fps), len(sp.gen))], fps) {
		p.genOff = off
		return
	}
	p.genOff = uint32(len(sp.gen))
	sp.spans[list] = p.genOff
	sp.gen = append(sp.gen, fps...)
}

// generated is the fingerprints of the messages edge p of this space
// generated, in emission order.
func (sp *space) generated(p *pred) []codec.Fingerprint {
	return sp.gen[p.genOff : p.genOff+uint32(p.genN) : p.genOff+uint32(p.genN)]
}

// keyTable is the run's one projection of node states to interests, and the
// only caller of the reduction (LMC-OPT's, or the pairs a GEN invariant
// declares): it gives interest keys dense ids and memoizes Conflict between
// them as bitset rows, one call per unordered key pair. Id 0 stands for every
// uninteresting state; its row is empty and it is never asked. Ids are
// content-keyed, so the table outlives a pass. It belongs to the merge
// goroutine, which interns every visited state once (checker.internKey):
// sweep workers read rows only, and prepareCut completes them before the
// workers start.
type keyTable struct {
	red      spec.KeyedReduction
	ids      map[string]int32
	interest []spec.Interest // by id
	rows     [][]uint64      // rows[a] has bit b when a and b conflict
	asked    [][]uint64      // asked[a] has bit b once the pair {a, b} was asked
	width    int             // words per row and per key mask
}

func newKeyTable(red spec.KeyedReduction) *keyTable {
	return &keyTable{red: red, ids: make(map[string]int32),
		interest: []spec.Interest{nil}, rows: [][]uint64{{0}}, asked: [][]uint64{{0}}, width: 1}
}

// intern gives ns its key id.
func (k *keyTable) intern(ns *nodeState) {
	in, ok := k.red.Interest(ns.node, ns.state)
	if !ok {
		return // id 0
	}
	key := k.red.InterestKey(in)
	id, seen := k.ids[key]
	if !seen {
		id = int32(len(k.interest))
		k.ids[key] = id
		k.interest = append(k.interest, in)
		if len(k.interest) > 64*k.width {
			k.width++
			for a := range k.rows {
				k.rows[a], k.asked[a] = append(k.rows[a], 0), append(k.asked[a], 0)
			}
		}
		k.rows = append(k.rows, make([]uint64, k.width))
		k.asked = append(k.asked, make([]uint64, k.width))
	}
	ns.key = id
}

// conflicts reports whether the interests of ids a and b (both non-zero)
// conflict, asking the reduction the first time the pair comes up.
func (k *keyTable) conflicts(a, b int32) bool {
	if k.asked[a][b>>6]&(1<<(b&63)) == 0 {
		if k.red.Conflict(k.interest[a], k.interest[b]) {
			k.rows[a][b>>6] |= 1 << (b & 63)
			k.rows[b][a>>6] |= 1 << (a & 63)
		}
		k.asked[a][b>>6] |= 1 << (b & 63)
		k.asked[b][a>>6] |= 1 << (a & 63)
	}
	return k.rows[a][b>>6]&(1<<(b&63)) != 0
}

// complete asks about every pair of ids in mask that has not been asked yet,
// so the rows are exact within mask.
func (k *keyTable) complete(mask []uint64) {
	for ai, aw := range mask {
		for ; aw != 0; aw &= aw - 1 {
			a := int32(ai*64 + bits.TrailingZeros64(aw))
			for bi, bw := range mask {
				for todo := bw &^ k.asked[a][bi]; todo != 0; todo &= todo - 1 {
					k.conflicts(a, int32(bi*64+bits.TrailingZeros64(todo)))
				}
			}
		}
	}
}

// meets reports whether some id in a conflicts with some id in b.
func (k *keyTable) meets(a, b []uint64) bool {
	for ai, aw := range a {
		for ; aw != 0; aw &= aw - 1 {
			row := k.rows[ai*64+bits.TrailingZeros64(aw)]
			for i := range b {
				if row[i]&b[i] != 0 {
					return true
				}
			}
		}
	}
	return false
}

// conflicting reports whether two members of combo hold conflicting keys.
func (k *keyTable) conflicting(combo []*nodeState) bool {
	for i, a := range combo {
		for _, b := range combo[i+1:] {
			if a.key != 0 && b.key != 0 && k.conflicts(a.key, b.key) {
				return true
			}
		}
	}
	return false
}
