// Package lmc is a Go implementation of local model checking (LMC) for
// distributed systems, reproducing "Model Checking a Networked System
// Without the Network" (Guerraoui & Yabandeh, NSDI 2011).
//
// Classic model checkers for distributed systems explore global states —
// the node local states plus every in-flight message — and drown in the
// state explosion the network causes. LMC removes the network from the
// checker's state a priori: each node's local state space is explored
// independently against a single shared, monotonically growing network
// object; system states (the tuples invariants are specified on) are only
// materialized temporarily, by combining visited node states; and because
// such a combination may be impossible in a real run, every preliminary
// invariant violation is confirmed a posteriori by a soundness-verification
// phase that searches for a realizable schedule — which doubles as the
// counterexample handed to the user.
//
// # Defining a protocol
//
// A protocol implements Machine: deterministic message and internal-action
// handlers over states that encode canonically (see the codec
// fingerprinting contract on State). The packages under
// internal/protocols — Paxos, 1Paxos, two-phase commit, tree and chain
// forwarding, a RandTree-style overlay — are complete worked examples.
//
// # Checking
//
// Check runs the local checker from a start system state; CheckContext is
// the same with an error return for invalid options and a context:
//
//	res, err := lmc.CheckContext(ctx, machine, lmc.InitialSystem(machine),
//	    lmc.Options{Invariant: myInvariant})
//	if err != nil { ... }
//	for _, bug := range res.Bugs {
//	    fmt.Println(bug.Violation, bug.Schedule)
//	}
//
// Supplying Options.Reduction — a Reduction that is also a Keyer — turns on
// LMC-OPT, the invariant-specific system-state creation of the paper's §4.2. Global/GlobalContext run the
// classic bounded-DFS baseline for comparison. NewSim and
// Online/OnlineContext reproduce the paper's online checking scheme: a live
// (simulated, lossy) deployment snapshotted periodically, with the checker
// restarted from each snapshot.
//
// Cancellation is the context: it is honored at round barriers, and a
// cancelled run returns its partial Result with StopReason=StopCancelled,
// not an error. Progress is the event stream: Options.Observer receives
// round, heartbeat and — with Options.Checkpoint set — one KindCheckpoint
// event per stored round.
//
// # Options
//
// Options is a plain struct and the zero value of every field is its
// default; set what the run needs in a literal. Validate reports
// configurations that cannot produce a meaningful run (the Context entry
// points call it; the plain ones panic on what it rejects).
//
// # Durability
//
// Long runs can checkpoint at every round barrier (Options.Checkpoint) and
// later resume bit-for-bit (Options.Resume): the resumed run re-runs
// exploration — every handler; a checkpoint saves no work — and verifies its
// digest against the stored one after every stored round, so its Result —
// bugs, schedules, every deterministic counter — is identical to the
// uninterrupted run's, or the run stops with StopResumeDiverged.
// internal/store persists
// checkpoints in a single append-only file and survives SIGKILL mid-write;
// cmd/lmc's serve mode runs a resident checking service on top of it.
package lmc

import (
	"context"
	"log/slog"

	"lmc/internal/core"
	"lmc/internal/mc/global"
	"lmc/internal/model"
	"lmc/internal/obs"
	"lmc/internal/online"
	"lmc/internal/sim"
	"lmc/internal/simnet"
	"lmc/internal/spec"
	"lmc/internal/stats"
	"lmc/internal/trace"
)

// Core model vocabulary (see internal/model for the full contracts).
type (
	// NodeID identifies a node; nodes are numbered 0..N-1.
	NodeID = model.NodeID
	// Message is a network message in flight.
	Message = model.Message
	// Action is a node-local event (timer, application call).
	Action = model.Action
	// State is one node's local state.
	State = model.State
	// Machine is a protocol definition: the handlers of the paper's Fig. 5.
	Machine = model.Machine
	// SystemState is the tuple of node local states invariants see.
	SystemState = model.SystemState
	// Event is one transition: a message delivery or an internal action.
	Event = model.Event
)

// Specification vocabulary (see internal/spec).
type (
	// Invariant is a safety property over system states.
	Invariant = spec.Invariant
	// InvariantFunc adapts a function to Invariant.
	InvariantFunc = spec.InvariantFunc
	// LocalInvariant is a per-node-state property.
	LocalInvariant = spec.LocalInvariant
	// Violation describes a failed invariant.
	Violation = spec.Violation
	// Reduction enables LMC-OPT's invariant-specific system-state creation.
	// LMC-OPT requires it to implement Keyer too (InterestKey): node states
	// are grouped, and conflicts decided, by interest key.
	Reduction = spec.Reduction
	// Keyer gives a reduction's interests canonical keys.
	Keyer = spec.Keyer
	// Interest is a reduction's projection of a node state.
	Interest = spec.Interest
)

// Checker configuration and results (see internal/core and
// internal/mc/global).
type (
	// Options configures the local checker.
	Options = core.Options
	// Reductions selects the optional state-space reduction
	// (Options.Reduce): symmetry canonicalization of LMC-GEN's system-state
	// sweep over the protocol's declared interchangeable roles. It preserves
	// verdicts; the zero value disables it. There is no partial-order
	// reduction: it only reshaped the soundness search's path odometer and
	// was measured slower on every workload, so ParseReductions accepts
	// "por" for old specs and ignores it.
	Reductions = core.Reductions
	// Result reports a local checker run.
	Result = core.Result
	// Bug is a confirmed violation with its realizing schedule.
	Bug = core.Bug
	// GlobalOptions configures the global baseline checker.
	GlobalOptions = global.Options
	// GlobalResult reports a global checker run.
	GlobalResult = global.Result
	// Counters are the statistics both checkers report.
	Counters = stats.Counters
	// Schedule is a totally ordered event sequence (a counterexample).
	Schedule = trace.Schedule
)

// Checkpoint/resume vocabulary (see internal/core/roundlog.go and
// internal/store). A run with Options.Checkpoint set hands one
// RoundCheckpoint to the sink per completed round barrier; a run with
// Options.Resume set runs the whole check again and holds every round to
// the digest a previous run of the same spec stored for it.
type (
	// RoundCheckpoint is one completed exploration round: a replica
	// digest and a counter snapshot.
	RoundCheckpoint = core.RoundCheckpoint
	// CheckpointSink receives round checkpoints (internal/store's
	// Store.Sink returns one).
	CheckpointSink = core.CheckpointSink
	// ResumeSource supplies a previous run's stored rounds
	// (internal/store's Store.Resume returns one).
	ResumeSource = core.ResumeSource
)

// Run-event observability (see internal/obs). Both checkers and the online
// driver emit typed events into Options.Observer: run and pass boundaries,
// per-round progress, system-state and soundness batches, violations, and
// periodic heartbeats carrying the live Counters plus heap growth. The
// local checker buffers events per round and flushes them at the
// sequential merge barrier, so an observer never runs on the parallel
// workers' hot path and results stay bit-for-bit identical for every
// Workers setting. RunEvent is the event type ("Event" already names a
// transition in the model vocabulary above).
type (
	// Observer receives run events; implementations must be cheap or
	// offload their own work.
	Observer = obs.Observer
	// RunEvent is one observability event.
	RunEvent = obs.Event
	// RunEventKind discriminates RunEvent payloads.
	RunEventKind = obs.Kind
	// FuncObserver adapts a function to Observer.
	FuncObserver = obs.FuncObserver
	// StopReason says why a checker run ended.
	StopReason = obs.StopReason
	// PhaseTimes attributes a run's wall time to its phases.
	PhaseTimes = obs.PhaseTimes
	// EventRecorder collects every event, for tests and analysis.
	EventRecorder = obs.Recorder
)

// RunEvent kinds.
const (
	KindRunStart         = obs.KindRunStart
	KindPassStart        = obs.KindPassStart
	KindRoundStart       = obs.KindRoundStart
	KindRoundEnd         = obs.KindRoundEnd
	KindSystemStates     = obs.KindSystemStates
	KindSoundness        = obs.KindSoundness
	KindPrelimViolations = obs.KindPrelimViolations
	KindViolation        = obs.KindViolation
	KindHeartbeat        = obs.KindHeartbeat
	KindSnapshot         = obs.KindSnapshot
	KindRunEnd           = obs.KindRunEnd
	KindCheckpoint       = obs.KindCheckpoint
	KindResume           = obs.KindResume
)

// StopReason values.
const (
	// StopFixpoint: the exploration reached its natural end (LMC fixpoint,
	// or the global search exhausted its bounded space).
	StopFixpoint = obs.StopFixpoint
	// StopBudget: the wall-time budget expired.
	StopBudget = obs.StopBudget
	// StopTransitions: the transition cap was reached.
	StopTransitions = obs.StopTransitions
	// StopCancelled: the run context was cancelled.
	StopCancelled = obs.StopCancelled
	// StopFirstBug: StopAtFirstBug ended the run at a confirmed bug.
	StopFirstBug = obs.StopFirstBug
	// StopResumeDiverged: a resumed run's post-round digest disagreed with
	// the stored checkpoint (stale or corrupted checkpoint data).
	StopResumeDiverged = obs.StopResumeDiverged
)

// NewLogObserver returns an Observer that logs run milestones through
// log/slog at Info and per-round detail at Debug; nil means slog.Default().
func NewLogObserver(l *slog.Logger) Observer { return obs.NewLogObserver(l) }

// NewExpvarObserver returns an Observer publishing live counters under the
// named expvar map, served on /debug/vars by any process that imports
// expvar's HTTP handler (net/http/pprof pulls it in). The same name always
// yields the same underlying map.
func NewExpvarObserver(name string) Observer { return obs.NewExpvarObserver(name) }

// Online checking and live simulation (see internal/online, internal/sim).
type (
	// Sim is a discrete-event live run of a protocol over a lossy network.
	Sim = sim.Sim
	// SimConfig parameterizes a live run.
	SimConfig = sim.Config
	// NetConfig parameterizes the lossy network.
	NetConfig = simnet.Config
	// OnlineConfig parameterizes an online checking session.
	OnlineConfig = online.Config
	// OnlineReport summarizes an online checking session.
	OnlineReport = online.Report
)

// Strategy values for the global checker.
const (
	// DFS is the paper's B-DFS baseline search order.
	DFS = global.DFS
	// BFS explores breadth-first, yielding per-depth series in one run.
	BFS = global.BFS
)

// Check runs the local model checker (LMC) on machine m from the given
// start system state. Set Options.Reduction for LMC-OPT. It is
// CheckContext with a background context, panicking on invalid options.
func Check(m Machine, start SystemState, opt Options) *Result {
	res, err := CheckContext(context.Background(), m, start, opt)
	if err != nil {
		panic(err)
	}
	return res
}

// CheckContext is Check with option validation (Options.Validate) and
// cooperative cancellation. Cancellation is honored at round barriers —
// after the round's buffered run events are flushed — so a run cancelled
// from an Observer hook stops at the same round for every Workers setting.
// A cancelled run is not an error: it returns the partial Result with
// Complete=false and StopReason=StopCancelled.
func CheckContext(ctx context.Context, m Machine, start SystemState, opt Options) (*Result, error) {
	return core.CheckContext(ctx, m, start, opt)
}

// Global runs the classic global-state model checker (B-DFS by default),
// the baseline the paper compares against. It is GlobalContext with a
// background context, panicking on invalid options.
func Global(m Machine, start SystemState, opt GlobalOptions) *GlobalResult {
	res, err := GlobalContext(context.Background(), m, start, opt)
	if err != nil {
		panic(err)
	}
	return res
}

// GlobalContext is Global with option validation surfaced as an error and
// cooperative cancellation, polled once per worklist iteration. A
// cancelled search returns the partial GlobalResult with Complete=false
// and StopReason=StopCancelled.
func GlobalContext(ctx context.Context, m Machine, start SystemState, opt GlobalOptions) (*GlobalResult, error) {
	return global.CheckContext(ctx, m, start, opt)
}

// InitialSystem builds the system state of every node's initial state.
func InitialSystem(m Machine) SystemState { return model.InitialSystem(m) }

// ParseReductions parses a CLI-style reduction spec — "sym" (or "all"), or
// "none" / "" — into a Reductions value, mirroring the -reduce flag of
// cmd/lmc.
func ParseReductions(spec string) (Reductions, error) {
	return core.ParseReductions(spec)
}

// Replay re-executes a schedule from a start state against the real
// handlers and a real message-consuming network; it is the ground truth
// for counterexamples.
func Replay(m Machine, start SystemState, sc Schedule) error {
	return trace.Replay(m, start, sc).Err
}

// NewSim builds a live discrete-event run.
func NewSim(cfg SimConfig) *Sim { return sim.New(cfg) }

// Online snapshots a live run periodically and restarts the local checker
// from each snapshot (the paper's online model checking scheme, §3.3). It
// is OnlineContext with a background context, panicking on an invalid
// config.
func Online(live *Sim, cfg OnlineConfig) *OnlineReport {
	rep, err := OnlineContext(context.Background(), live, cfg)
	if err != nil {
		panic(err)
	}
	return rep
}

// OnlineContext is Online with config validation (OnlineConfig.Validate)
// surfaced as an error and cooperative cancellation: the context cuts the
// current checker restart off at its next round barrier and stops the
// session. Each restart is announced to cfg.Checker.Observer with a
// KindSnapshot event.
func OnlineContext(ctx context.Context, live *Sim, cfg OnlineConfig) (*OnlineReport, error) {
	return online.RunContext(ctx, live, cfg)
}
