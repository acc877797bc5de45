package core

import (
	"context"
	"runtime"
	"runtime/pprof"
	"time"

	"lmc/internal/codec"
	"lmc/internal/model"
	"lmc/internal/netstate"
	"lmc/internal/obs"
	"lmc/internal/spec"
	"lmc/internal/stats"
)

// checker carries one run's mutable state.
type checker struct {
	m     model.Machine
	opt   Options
	start model.SystemState

	// ctx is polled at round barriers only, so cancellation cuts off at the
	// same round for every worker count.
	ctx context.Context
	// em buffers run events and flushes them at the same barriers.
	em emitter

	spaces []*space
	net    *netstate.SharedNet
	// runs are the pass's per-node exploration runs (runPhase), and
	// phaseEmits and phaseNews the barrier's merged buffers (mergePhase):
	// each keeps its arrays from phase to phase, and the barrier clears
	// what they hold once merged.
	runs       []*nodeRun
	phaseEmits []emitBatch
	phaseNews  []discovery

	// initNetCount counts the message fingerprints available before any
	// event executes (Options.InitialMessages): soundness verification seeds
	// its generated-message pool with them, and they are the supply baseline
	// of the flow memos (index.go).
	initNetCount map[codec.Fingerprint]int
	// msgs numbers the messages the pass's flow memos mention (index.go).
	msgs msgIDs

	res        *Result
	probe      stats.MemProbe
	begin      time.Time
	deadline   time.Time
	localBound int

	// workers is the resolved worker-pool size (>= 1).
	workers int

	// keys is the interest-key table (keyTable): LMC-OPT's, or under LMC-GEN
	// the invariant's declared pairs (spec.PrefixInvariant), which let the
	// sweep decide whole subtrees; nil when there is neither.
	keys *keyTable

	// canon is the role-symmetry canonicalizer, non-nil only in an LMC-GEN
	// run with Options.Reduce.Symmetry set on a machine that declares usable
	// model.Symmetric classes. It drives the GEN enumeration skip (symSkip)
	// and the fixpoint orbit sweep.
	canon *codec.Canonicalizer
	// orbits and orbitSeen record the violating orbits of the current pass
	// for sweepOrbits; both reset with the LS sets (the stored fingerprints
	// are resolved against the pass's spaces).
	orbits    []orbitRec
	orbitSeen map[codec.Fingerprint]struct{}

	// verdicts caches soundness outcomes per system-state fingerprint so a
	// combination is never verified twice (§4.2 discusses caching violated
	// system states). A sound verdict is reported the moment it is cached,
	// so true also means "already in Result.Bugs". Only confirm.go touches it.
	verdicts map[codec.Fingerprint]bool
	// witnessed marks (state, node, group) witness searches already run;
	// like the paper's predecessor-update simplification, completed
	// searches are not redone when later states extend the completion
	// space — new states trigger their own searches instead.
	witnessed map[witnessKey]struct{}
	// sw is the GEN sweep's reusable working memory (sweep.go), wit the
	// witness search's (witness.go). Both belong to the merge goroutine.
	sw  sweepScratch
	wit witnessScratch

	// log is the round log: the hint table, the capture buffer and the
	// attached sources and sink (roundlog.go). Shard fleets, shard-worker
	// replicas, checkpoint sinks and resume all live behind it.
	log roundLog

	stopped bool // a stop criterion (budget/transitions/first-bug) fired
	// reason records which criterion fired first; meaningful only while
	// stopped is set.
	reason         obs.StopReason
	passSuppressed bool // the local bound suppressed an action this pass
	// deadlineTick is the canonical-mode poll cadence (chargeTransition);
	// parallel runs and witness searches keep ticks of their own.
	deadlineTick int
	// localExecuted counts internal-action handler executions per node in
	// the current pass, charged against localBound. During a parallel phase
	// each slot is owned by its node's worker.
	localExecuted []int
}

// resolveWorkers maps Options.Workers to a concrete pool size: negative
// forces sequential (one worker), zero auto-detects the CPU count, positive
// is clamped to GOMAXPROCS — a pool wider than the scheduler's parallelism
// cannot run any faster, and on a 1-CPU host the goroutine churn made the
// pool measurably slower than sequential (the resolved count of 1 then
// skips pool setup entirely via the parallel-phase gate).
func resolveWorkers(w int) int {
	switch {
	case w < 0:
		return 1
	case w == 0:
		w = runtime.NumCPU()
	}
	if procs := runtime.GOMAXPROCS(0); w > procs {
		w = procs
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Check runs the local model checker on machine m from the given start
// system state — the live state in online use, or model.InitialSystem(m)
// for offline checking — under opt. It is CheckContext with a background
// context, panicking on options Validate rejects.
func Check(m model.Machine, start model.SystemState, opt Options) *Result {
	res, err := CheckContext(context.Background(), m, start, opt)
	if err != nil {
		panic(err)
	}
	return res
}

// CheckContext is Check with option validation and cooperative
// cancellation. The context is polled at round barriers only — between
// rounds the merge goroutine flushes buffered run events and then checks
// ctx — so a cancelled run stops at the same round for every Workers
// setting, and an Observer hook that cancels on a given round produces
// identical partial results sequentially and in parallel. A cancelled run
// is not an error: it returns the partial Result with Complete=false and
// StopReason=StopCancelled. The error return is reserved for invalid
// Options (see Options.Validate).
func CheckContext(ctx context.Context, m model.Machine, start model.SystemState, opt Options) (*Result, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	return run(ctx, m, start, opt), nil
}

// newChecker resolves the option defaults and builds a checker ready to run
// passes. Shard workers build their replicas through it too, so coordinator
// and worker resolve every exploration knob identically.
func newChecker(ctx context.Context, m model.Machine, start model.SystemState, opt Options) *checker {
	// The engine clock starts before anything the caller waits for — the
	// probe's baseline below forces a collection — so Stats.Elapsed, event
	// times and the Budget deadline cover the whole call.
	begin := time.Now()
	if opt.LocalBound <= 0 {
		opt.LocalBound = 1
	}
	if opt.DisableSystemStates {
		// Figure 13's "LMC-explore": with no invariant, nothing materializes
		// a system state.
		opt.Invariant = nil
	}
	c := &checker{
		m:         m,
		opt:       opt,
		start:     start.Clone(),
		res:       &Result{},
		begin:     begin,
		verdicts:  make(map[codec.Fingerprint]bool),
		witnessed: make(map[witnessKey]struct{}),
	}
	c.workers = resolveWorkers(opt.Workers)
	if opt.Reduction != nil {
		c.keys = newKeyTable(opt.Reduction.(spec.KeyedReduction)) // Validate's rule
	} else if pi, ok := opt.Invariant.(spec.PrefixInvariant); ok {
		c.keys = newKeyTable(pi.Pairs())
	}
	// Symmetry reduces the GEN sweep; LMC-OPT has no sweep to reduce.
	if opt.Reduce.Symmetry && opt.Reduction == nil {
		if sym, ok := m.(model.Symmetric); ok {
			c.canon = buildCanonicalizer(m.NumNodes(), sym.SymmetryClasses())
		}
	}
	if opt.RecordSeries {
		c.res.Series = stats.NewSeries()
	}
	c.probe.Baseline()
	if opt.Budget > 0 {
		c.deadline = c.begin.Add(opt.Budget)
	}
	c.ctx = ctx
	c.em = newEmitter(opt.Observer, opt.HeartbeatEvery, c.begin)
	c.localBound = opt.LocalBound
	if opt.Resume != nil {
		c.log.sources = append(c.log.sources, &resumeSource{src: opt.Resume})
	}
	if opt.Checkpoint != nil {
		c.log.sink = checkpointDrain{opt.Checkpoint}
	}
	return c
}

// run executes a full check. sources are attached to the round log after
// the ones the options name (Options.Resume).
func run(ctx context.Context, m model.Machine, start model.SystemState, opt Options, sources ...roundSource) *Result {
	c := newChecker(ctx, m, start, opt)
	c.log.sources = append(c.log.sources, sources...)
	c.em.runStart()

	// Iterative deepening on the local-event bound (§4.2, "Local events"):
	// run a pass; if the bound suppressed any action and deepening is
	// configured, restart from scratch with a larger bound.
	for pass := 1; ; pass++ {
		c.em.passStart(pass, c.localBound)
		complete := c.pass()
		c.res.Complete = complete && !c.stopped
		c.res.Suppressed = c.passSuppressed
		c.res.FinalLocalBound = c.localBound
		if c.stopped || !c.passSuppressed ||
			opt.LocalBoundStep <= 0 || opt.MaxLocalBound <= 0 ||
			c.localBound >= opt.MaxLocalBound {
			break
		}
		c.localBound += c.opt.LocalBoundStep
		if c.localBound > c.opt.MaxLocalBound {
			c.localBound = c.opt.MaxLocalBound
		}
	}
	c.finishSources()
	c.res.Stats.Elapsed = time.Since(c.begin)
	if c.stopped {
		c.res.StopReason = c.reason
	} else {
		c.res.StopReason = obs.StopFixpoint
	}
	c.em.runEnd(c.res, &c.probe)
	return c.res
}

// stop latches the first stop criterion that fires; later calls keep the
// original reason.
func (c *checker) stop(reason obs.StopReason) {
	if !c.stopped {
		c.stopped = true
		c.reason = reason
	}
}

// pollCancel checks the run context at a round barrier.
func (c *checker) pollCancel() {
	if c.ctx.Err() != nil {
		c.stop(obs.StopCancelled)
	}
}

// deadlinePollInterval is the number of charged work units (handler
// executions during exploration, in either mode, and combinations during
// the witness walks) between wall-clock deadline checks. One shared cadence
// keeps budget cutoffs comparably prompt in every loop while keeping
// time.Now off the per-unit hot path; only the GEN sweep (sweepWork.walk)
// keeps a coarser tick of its own, counted in visits.
const deadlinePollInterval = 256

// pollDeadline charges one unit against the poll cadence and reports
// whether the wall-clock deadline has passed (checked on every
// deadlinePollInterval-th call). It only reads checker state, so parallel
// workers may call it concurrently; the caller decides how to latch the
// stop — c.stop on sequential paths, the shared halt flag inside parallel
// phases.
func (c *checker) pollDeadline(tick *int) bool {
	*tick++
	if *tick%deadlinePollInterval != 0 {
		return false
	}
	return c.pastDeadline()
}

// pastDeadline reports whether the Budget's deadline has passed. A run
// without a Budget never reads the clock.
func (c *checker) pastDeadline() bool {
	return !c.deadline.IsZero() && time.Now().After(c.deadline)
}

// underPhase runs f with a pprof "phase" label, so CPU profiles attribute
// samples to the exploration phases out of the box (goroutines spawned
// under the label inherit it). Labels nest lexically: soundness work
// reached from inside a sysstate-labeled barrier reports as soundness.
func (c *checker) underPhase(phase string, f func()) {
	pprof.Do(c.ctx, pprof.Labels("phase", phase), func(context.Context) { f() })
}

// beginPass resets the per-pass state: fresh LS sets seeded with the start
// states, a fresh shared network seeded with the captured in-flight
// messages, and fresh per-pass caches.
func (c *checker) beginPass() {
	c.passSuppressed = false
	c.net = netstate.NewSharedNet(c.opt.DupLimit)
	c.localExecuted = make([]int, c.m.NumNodes())
	c.spaces = make([]*space, c.m.NumNodes())
	c.runs = make([]*nodeRun, c.m.NumNodes())
	for n := range c.spaces {
		c.spaces[n] = newSpace()
		c.runs[n] = &nodeRun{c: c, node: n}
	}

	// Seed the shared network with any captured in-flight messages. Their
	// fingerprints count as available from the start during soundness
	// verification.
	c.initNetCount = make(map[codec.Fingerprint]int, len(c.opt.InitialMessages))
	for _, msg := range c.opt.InitialMessages {
		if e := c.net.Add(msg); e != nil {
			c.initNetCount[e.FP]++
		} else {
			c.res.Stats.DuplicatesDropped++
		}
	}
	c.msgs = newMsgIDs(c.initNetCount)
	if c.canon != nil {
		c.orbits = nil
		c.orbitSeen = make(map[codec.Fingerprint]struct{})
	}

	// Lines 3–4 of Figure 9: initialize each LSn with the live state.
	for n := 0; n < c.m.NumNodes(); n++ {
		// The visited copy is fingerprinted itself, here, before any worker
		// can reach it: a state that carries its fingerprint
		// (model.Fingerprinter) is only read from then on.
		st := c.start[n].Clone()
		ns := &nodeState{
			node:  model.NodeID(n),
			state: st,
			fp:    model.StateFingerprint(st),
		}
		c.spaces[n].add(ns)
		c.internKey(ns)
		c.res.Stats.NodeStates++
	}
}

// pass explores to a fixpoint under the current local bound, starting from
// scratch (fresh LS sets and fresh I+). It reports whether the fixpoint was
// reached (as opposed to a stop criterion firing).
//
// A round is the two sweeps of Figure 9 — internal events, then network
// events over an epoch snapshot of I+ — and each sweep ends at the same
// barrier. A sweep gives every node its own run (runPhase): a run touches
// only its node's LS set and, for deliveries, the Applied counters of its
// own inbound entries, and buffers what must interleave deterministically.
// The barrier (mergePhase) appends the buffered emissions to I+ and runs
// the deferred invariant checks — witness searches included, right where
// the order raises them — in the canonical sequential order against
// virtual-time prefix views, so results are bit-for-bit identical for every
// worker count and never read the clock unless a Budget is set.
func (c *checker) pass() bool {
	c.beginPass()
	// The start system state itself is checked once, before exploration.
	c.checkStartState()

	// Sweeps fan out only when the transition budget is unbounded: a
	// MaxTransitions cap must be charged in the canonical sequential order so
	// a bounded run cuts off at the same transition for every worker count.
	parallel := c.workers >= 2 && c.m.NumNodes() >= 2 && c.opt.MaxTransitions <= 0

	// The sweeps and the barrier's deferred checks run under distinct pprof
	// phase labels.
	sweep := func(label string, deliveries bool) (progress bool) {
		var runs []*nodeRun
		c.underPhase(label, func() { runs = c.runPhase(parallel, deliveries) })
		c.underPhase("sysstate", func() { progress = c.mergePhase(runs) })
		return progress
	}

	for round := 1; !c.stopped; round++ {
		c.em.roundStart()
		// Round log, first half: a shard fleet loads this round's records so
		// both sweeps below consult them as hints; a stored checkpoint fetches
		// the digest the round must end on.
		c.beginRound(round)

		// Internal events execute the enabled actions of every node state
		// not processed yet (new states from the previous round included).
		// Network events (lines 6 and 8 of Figure 9) execute each message in
		// I+ on every visited state of its destination node; the Applied
		// counter skips states covered in earlier rounds, and messages
		// appended during this round are picked up next round (the epoch
		// snapshot), matching the paper's rounds.
		progress := sweep("actions", false)
		if !c.stopped {
			progress = sweep("delivery", true) || progress
		}

		c.recordRound()
		// Round log, second half: the sources verify the round's digest and
		// the sink stores it.
		c.endRound(round, progress)
		// The round barrier: flush buffered run events, then poll the
		// context. The observer runs before the poll, so a hook that cancels
		// on a chosen round stops the run at that exact barrier regardless of
		// the worker count.
		c.em.barrier(c.res, &c.probe, true)
		c.pollCancel()
		if c.stopped {
			break
		}
		if !progress {
			// Exploration fixpoint: re-expand the recorded violating orbits
			// so every arrangement the symmetry skip covered gets its own
			// soundness verdict.
			c.sweepOrbits()
			return true
		}
	}
	return false
}

// addPred records a predecessor edge of ns, with gen the fingerprints of the
// messages its event generated, unless it is an edge from ns itself (see
// nodeState.preds), duplicates an existing one or ns already has
// maxPredecessors of them. A kept edge copies gen into the space's pool, so
// gen may be a phase buffer.
func (c *checker) addPred(ns *nodeState, edge pred, gen []codec.Fingerprint) {
	if int(edge.prev) == ns.seq || len(ns.preds) >= maxPredecessors {
		return
	}
	for i := range ns.preds {
		if p := &ns.preds[i]; p.prev == edge.prev && p.eventFP == edge.eventFP {
			return
		}
	}
	c.spaces[ns.node].keep(&edge, gen)
	ns.preds = append(ns.preds, edge)
}

// internKey gives a newly visited state its interest-key id and, under
// LMC-OPT, files it in its space's group. Only the merge goroutine calls it,
// once per state, in canonical discovery order — so a space's groups are in
// first-member order and each group's members in seq order, whatever the
// worker count.
func (c *checker) internKey(ns *nodeState) {
	if c.keys == nil {
		return
	}
	c.keys.intern(ns)
	if c.opt.Reduction != nil {
		c.spaces[ns.node].classify(ns)
	}
}

// chargeTransition accounts for one handler execution and evaluates the
// global stop criteria in canonical (sequential) exploration mode. It
// returns false when the execution must not proceed.
func (c *checker) chargeTransition() bool {
	if c.stopped {
		return false
	}
	if c.opt.MaxTransitions > 0 && c.res.Stats.Transitions >= c.opt.MaxTransitions {
		c.stop(obs.StopTransitions)
		return false
	}
	if c.pollDeadline(&c.deadlineTick) {
		c.stop(obs.StopBudget)
		return false
	}
	c.res.Stats.Transitions++
	return true
}

// checkLocalInvariants evaluates node-local invariants directly on a newly
// visited node state, with no Cartesian combination (§4: RandTree's
// disjoint children/siblings). A violation still goes through soundness
// verification — the node state must be reachable in a real run, and the
// messages its path consumed must be generated by some completion of the
// other nodes — via the same lazy witness search system violations use.
func (c *checker) checkLocalInvariants(ns *nodeState, view []int) {
	for i, li := range c.opt.LocalInvariants {
		msg := li.CheckNode(ns.node, ns.state)
		if msg == "" {
			continue
		}
		c.res.Stats.PreliminaryViolations++
		v := &spec.Violation{
			Invariant: li.Name(),
			Detail:    "node " + ns.node.String() + ": " + msg,
		}
		c.confirmLocalViolation(ns, v, i, view)
		if c.stopped {
			return
		}
	}
}

// recordRound samples the per-round progress series. The depth coordinate
// is the maximum total system-state depth reachable from the states visited
// so far (the sum over nodes of the deepest visited path), which is the
// depth axis the paper plots for LMC (§5.1: LMC explores sequences up to
// 25 in the 22-event space). Stats never see it: RecordSeries moves none.
func (c *checker) recordRound() {
	if c.res.Series == nil {
		return
	}
	depth := 0
	for _, sp := range c.spaces {
		max := 0
		for _, ns := range sp.states {
			if ns.depth > max {
				max = ns.depth
			}
		}
		depth += max
	}
	c.res.Series.Record(stats.Sample{
		Depth:        depth,
		Elapsed:      time.Since(c.begin),
		Transitions:  c.res.Stats.Transitions,
		NodeStates:   c.res.Stats.NodeStates,
		SystemStates: c.res.Stats.SystemStates,
		HeapBytes:    c.probe.Sample(),
	})
}
