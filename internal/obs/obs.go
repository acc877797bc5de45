// Package obs is the run-event observability layer shared by every checker
// in the repository: the local checker (internal/core), the global baseline
// (internal/mc/global), and the online driver (internal/online) all emit
// the same typed events into an Observer supplied through their options.
//
// The layer is deliberately zero-dependency (standard library only) and
// deliberately out of the hot path: checkers buffer events per exploration
// round and flush the buffer at the round's merge barrier, on the
// sequential merge goroutine — workers never call an observer, so an active
// observer cannot perturb the bit-for-bit determinism of parallel runs, and
// a nil observer costs a single branch per barrier.
//
// Events answer the questions a long-running checker run raises while it is
// still running: which pass/round is executing, which phase (exploration,
// system-state creation, soundness verification) is burning the budget, how
// the counters and the heap are growing, and what has been found so far.
package obs

import (
	"fmt"
	"time"

	"lmc/internal/stats"
)

// Kind is the type tag of a run event.
type Kind int

const (
	// KindRunStart opens a checker run.
	KindRunStart Kind = iota
	// KindPassStart opens one exploration pass (the local checker restarts
	// a pass from scratch whenever LocalBoundStep deepens the local-event
	// bound); Event.LocalBound carries the pass's bound.
	KindPassStart
	// KindRoundStart opens one exploration round within a pass.
	KindRoundStart
	// KindRoundEnd closes a round at its merge barrier; Event.Depth carries
	// the deepest total system-state depth reached so far and Event.Count
	// the cumulative visited node states.
	KindRoundEnd
	// KindSystemStates reports the system states materialized and
	// invariant-checked since the previous barrier (Event.Count), with the
	// wall time attributed to the system-state phase in Event.Phases.
	KindSystemStates
	// KindSoundness reports the soundness-verification calls executed since
	// the previous barrier (Event.Count) and the event-sequence combinations
	// they examined (Event.Sequences).
	KindSoundness
	// KindPrelimViolations reports invariant violations detected since the
	// previous barrier that still await soundness verification
	// (Event.Count).
	KindPrelimViolations
	// KindViolation reports one confirmed (soundness-verified) violation;
	// Event.Invariant and Event.Detail identify it, Event.Depth its total
	// depth.
	KindViolation
	// KindHeartbeat is a periodic snapshot: Event.Counters (cumulative),
	// Event.HeapBytes (heap growth since the run's baseline), and
	// Event.Phases (cumulative per-phase wall-time attribution). Heartbeats
	// are emitted at round barriers when the configured interval elapsed, so
	// their timing is wall-clock-dependent but their contents are the same
	// deterministic merged state every worker count produces.
	KindHeartbeat
	// KindSnapshot is emitted by the online driver when it captures a live
	// state and restarts the checker from it; Event.SimTime is the simulated
	// time of the snapshot and Event.Count the 1-based restart index.
	KindSnapshot
	// KindRunEnd closes a run: final Event.Counters, Event.Phases, and
	// Event.Reason (why the run stopped).
	KindRunEnd
	// KindShardRound reports one shard's contribution to a round of sharded
	// multi-process exploration: Event.Shard/Event.Shards identify the shard,
	// Event.Count the delivery records it shipped for the round.
	KindShardRound
	// KindShardDegraded reports that the sharded engine abandoned its worker
	// processes and fell back to in-process exploration; Event.Detail carries
	// the reason (EOF from a dead worker, digest divergence, spawn failure)
	// and Event.Shard the implicated shard (-1 when not attributable).
	KindShardDegraded
	// KindCheckpoint reports one round checkpoint handed to the configured
	// sink at the round's merge barrier: Event.Count carries the visited
	// node states the stored digest covers. A non-empty Event.Detail means
	// the sink failed and checkpointing was disabled for the rest of the run
	// (the run itself continues).
	KindCheckpoint
	// KindResume reports that a round of a resumed run will be verified
	// against the digest a previous run stored for it (Event.Count is that
	// digest's visited-state total). A non-empty Event.Detail reports a
	// post-round digest mismatch against the stored checkpoint (Event.Count
	// is then the run's own total) — the run stops with StopResumeDiverged
	// and the caller should invalidate the checkpoint and re-run fresh.
	KindResume
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindRunStart:
		return "run-start"
	case KindPassStart:
		return "pass-start"
	case KindRoundStart:
		return "round-start"
	case KindRoundEnd:
		return "round-end"
	case KindSystemStates:
		return "system-states"
	case KindSoundness:
		return "soundness"
	case KindPrelimViolations:
		return "prelim-violations"
	case KindViolation:
		return "violation"
	case KindHeartbeat:
		return "heartbeat"
	case KindSnapshot:
		return "snapshot"
	case KindRunEnd:
		return "run-end"
	case KindShardRound:
		return "shard-round"
	case KindShardDegraded:
		return "shard-degraded"
	case KindCheckpoint:
		return "checkpoint"
	case KindResume:
		return "resume"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// StopReason says why a checker run ended. It replaces the old bool-only
// Complete signal: Complete=false used to mean "some stop criterion fired"
// with no way to tell which one.
type StopReason int

const (
	// StopFixpoint: exploration exhausted the reachable space within the
	// configured bounds (the run is Complete).
	StopFixpoint StopReason = iota
	// StopBudget: the wall-clock budget (Options.Budget) expired.
	StopBudget
	// StopTransitions: the transition cap (Options.MaxTransitions) was hit.
	StopTransitions
	// StopCancelled: the context passed to CheckContext was cancelled; the
	// local checker observes cancellation at round barriers only, so the
	// partial result is bit-for-bit identical for every worker count.
	StopCancelled
	// StopFirstBug: Options.StopAtFirstBug ended the run at the first
	// confirmed violation.
	StopFirstBug
	// StopResumeDiverged: a run resumed from a checkpoint produced a
	// post-round digest that disagreed with the stored one — the checkpoint
	// belongs to a different code or option state. The partial result is
	// meaningless; invalidate the checkpoint and re-run fresh.
	StopResumeDiverged
)

// String names the reason.
func (r StopReason) String() string {
	switch r {
	case StopFixpoint:
		return "fixpoint"
	case StopBudget:
		return "budget"
	case StopTransitions:
		return "transitions"
	case StopCancelled:
		return "cancelled"
	case StopFirstBug:
		return "first-bug"
	case StopResumeDiverged:
		return "resume-diverged"
	default:
		return fmt.Sprintf("reason(%d)", int(r))
	}
}

// PhaseTimes attributes wall time to the phases of a local-checker run.
// Explore is derived (elapsed minus the measured phases, clamped at zero);
// SystemStates includes the invariant evaluation on materialized
// combinations; Soundness the witness searches and sequence validation;
// ShardWait the coordinator time spent blocked on shard-worker frames
// (zero outside sharded runs).
type PhaseTimes struct {
	Explore      time.Duration
	SystemStates time.Duration
	Soundness    time.Duration
	ShardWait    time.Duration
}

// Attribution derives the per-phase split from cumulative counters.
func Attribution(c *stats.Counters, elapsed time.Duration) PhaseTimes {
	explore := elapsed - c.SystemStateTime - c.SoundnessTime - c.ShardWaitTime
	if explore < 0 {
		explore = 0
	}
	return PhaseTimes{
		Explore:      explore,
		SystemStates: c.SystemStateTime,
		Soundness:    c.SoundnessTime,
		ShardWait:    c.ShardWaitTime,
	}
}

// Event is one run event. Only the fields documented for the event's Kind
// are meaningful; everything else is zero.
type Event struct {
	Kind Kind
	// Checker tags the emitting checker: "lmc", "global", or "online".
	Checker string
	// Elapsed is the wall time since the run started.
	Elapsed time.Duration
	// Pass is the 1-based exploration pass (local checker).
	Pass int
	// Round is the 1-based round within the pass (local checker) or the
	// completed BFS depth (global checker's per-depth events).
	Round int
	// LocalBound is the pass's local-event bound (KindPassStart).
	LocalBound int
	// Depth is the deepest exploration point reached so far (KindRoundEnd,
	// KindRunEnd) or the violation's total depth (KindViolation).
	Depth int
	// Count is the event's cardinality: batch sizes for the barrier
	// aggregates, cumulative node states for KindRoundEnd, the restart
	// index for KindSnapshot.
	Count int
	// Sequences is the number of event-sequence combinations examined
	// (KindSoundness).
	Sequences int
	// Invariant and Detail identify a violation (KindViolation).
	Invariant string
	Detail    string
	// Reason is why the run ended (KindRunEnd).
	Reason StopReason
	// Counters is a snapshot of the cumulative run counters (KindHeartbeat,
	// KindRunEnd).
	Counters stats.Counters
	// HeapBytes is the heap growth since the run's baseline
	// (KindHeartbeat).
	HeapBytes uint64
	// Phases is the per-phase wall-time attribution (KindHeartbeat,
	// KindRunEnd, KindSystemStates).
	Phases PhaseTimes
	// SimTime is the simulated time of an online snapshot (KindSnapshot).
	SimTime float64
	// Shard and Shards identify a shard of a multi-process run
	// (KindShardRound, KindShardDegraded): shard index (or -1) and total
	// shard count.
	Shard  int
	Shards int
}

// String renders a compact single-line form, the same shape LogObserver
// logs.
func (e Event) String() string {
	s := fmt.Sprintf("%s %s", e.Checker, e.Kind)
	switch e.Kind {
	case KindPassStart:
		s += fmt.Sprintf(" pass=%d bound=%d", e.Pass, e.LocalBound)
	case KindRoundStart:
		s += fmt.Sprintf(" pass=%d round=%d", e.Pass, e.Round)
	case KindRoundEnd:
		s += fmt.Sprintf(" pass=%d round=%d depth=%d states=%d", e.Pass, e.Round, e.Depth, e.Count)
	case KindSystemStates, KindPrelimViolations:
		s += fmt.Sprintf(" pass=%d round=%d count=%d", e.Pass, e.Round, e.Count)
	case KindSoundness:
		s += fmt.Sprintf(" pass=%d round=%d calls=%d sequences=%d", e.Pass, e.Round, e.Count, e.Sequences)
	case KindViolation:
		s += fmt.Sprintf(" invariant=%q depth=%d", e.Invariant, e.Depth)
	case KindHeartbeat:
		s += fmt.Sprintf(" transitions=%d nodeStates=%d systemStates=%d heap=%d",
			e.Counters.Transitions, e.Counters.NodeStates, e.Counters.SystemStates, e.HeapBytes)
	case KindSnapshot:
		s += fmt.Sprintf(" run=%d simTime=%.0f", e.Count, e.SimTime)
	case KindRunEnd:
		s += fmt.Sprintf(" reason=%s transitions=%d bugs=%d",
			e.Reason, e.Counters.Transitions, e.Counters.ConfirmedBugs)
	case KindShardRound:
		s += fmt.Sprintf(" pass=%d round=%d shard=%d/%d records=%d",
			e.Pass, e.Round, e.Shard, e.Shards, e.Count)
	case KindShardDegraded:
		s += fmt.Sprintf(" shard=%d/%d reason=%q", e.Shard, e.Shards, e.Detail)
	case KindCheckpoint:
		s += fmt.Sprintf(" pass=%d round=%d states=%d", e.Pass, e.Round, e.Count)
		if e.Detail != "" {
			s += fmt.Sprintf(" error=%q", e.Detail)
		}
	case KindResume:
		s += fmt.Sprintf(" pass=%d round=%d states=%d", e.Pass, e.Round, e.Count)
		if e.Detail != "" {
			s += fmt.Sprintf(" diverged=%q", e.Detail)
		}
	}
	return s
}

// Observer receives run events. Implementations must be cheap relative to
// a checker round (they run on the sequential merge goroutine) and must not
// retain the Event's Counters pointer-free snapshot beyond the call unless
// they copy it — the checkers reuse nothing, the snapshot is by value, so
// retaining is in fact safe; the requirement is only about cost.
//
// Observers attached to a run with Options.Workers > 1 are still called
// from a single goroutine (the merge barrier); they need no internal
// locking for that. An observer shared across concurrently running checkers
// (the online driver never does this, but a custom harness might) must
// synchronize itself.
type Observer interface {
	OnEvent(Event)
}

// FuncObserver adapts a function to Observer.
type FuncObserver func(Event)

// OnEvent implements Observer.
func (f FuncObserver) OnEvent(e Event) { f(e) }

// Multi fans every event out to several observers, in order.
func Multi(os ...Observer) Observer {
	list := make([]Observer, 0, len(os))
	for _, o := range os {
		if o != nil {
			list = append(list, o)
		}
	}
	// Nil in, nil out: callers rely on a nil Observer keeping the checkers'
	// zero-cost fast path, and a single observer needs no fan-out shim.
	switch len(list) {
	case 0:
		return nil
	case 1:
		return list[0]
	}
	return multi(list)
}

type multi []Observer

func (m multi) OnEvent(e Event) {
	for _, o := range m {
		o.OnEvent(e)
	}
}
