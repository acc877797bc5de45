package core

import (
	"cmp"
	"errors"
	"slices"
	"sync"
	"sync/atomic"

	"lmc/internal/codec"
	"lmc/internal/model"
	"lmc/internal/netstate"
	"lmc/internal/obs"
)

// nodeRun is one node's share of one exploration phase, accumulated
// privately by its worker goroutine and merged at the round barrier. A
// worker touches only its own LS set (states, history chains, predecessor
// edges), its own localExecuted slot, and — in the delivery phase — the
// Applied counters of entries destined to its node, so phase workers never
// contend; everything that must interleave deterministically (network
// appends, stats, invariant checks) is buffered here and replayed at the
// barrier in the canonical sequential order.
type nodeRun struct {
	c    *checker
	node int

	// halt is the shared cross-worker stop flag of a parallel phase (only
	// the wall-clock deadline can raise it mid-phase); nil in canonical
	// mode, where the checker's global stop criteria apply directly.
	halt *atomic.Bool

	// emits are the emission batches in execution order; news the node
	// states discovered this phase, in discovery order. entry tags carry
	// the producing network-entry index in the delivery phase (-1 for
	// internal events), which is what the barrier sorts by.
	emits []emitBatch
	news  []discovery
	// fps holds the phase's emission fingerprints, hashed once at the
	// handler; each batch in emits aliases its span, and an edge a space
	// keeps copies its span into the space's pool (space.keep). Like emits it
	// is emptied at the barrier, so nothing may hold a span past it: a
	// round-log capture copies its own.
	fps []codec.Fingerprint

	// spare is a handler copy this run made and nothing kept — its handler
	// rejected, or its successor was already visited — which the next
	// handler's copy is written into (copyOf); nil when there is none.
	spare model.State

	// Stats deltas, merged into Result.Stats at the barrier. transitions
	// stays zero in canonical mode (chargeTransition charges the global
	// counter directly there).
	transitions int
	rejections  int
	maxDepth    int

	ran        bool // an action handler executed (phase A progress)
	advanced   bool // an Applied prefix advanced (phase B progress)
	suppressed bool // the local bound suppressed an action

	// delivered counts this node's message-handler executions this round,
	// against roundDeliveryCap.
	delivered int

	// taint is the first round-log hint this run's own execution
	// contradicted; the barrier latches it on the log.
	taint error

	deadlineTick int
}

// reset readies the run for its next phase of the pass: the buffers and the
// spare carry over, every per-phase counter and flag starts again.
func (r *nodeRun) reset(halt *atomic.Bool) {
	*r = nodeRun{c: r.c, node: r.node, halt: halt, emits: r.emits[:0], news: r.news[:0], fps: r.fps[:0], spare: r.spare}
}

// capped reports whether this node has exhausted its per-round delivery
// budget; the sweep pauses and resumes from the Applied prefixes next round.
func (r *nodeRun) capped() bool {
	return r.delivered >= roundDeliveryCap
}

// emitBatch is one handler execution's emitted messages, with their
// fingerprints (hashed once at the handler; the barrier's network merge
// reuses them instead of re-hashing). A batch minted from a trusted round-log
// record carries fingerprints only: msgs is nil and lazy holds what the
// merge needs to materialize the real messages, which it does only when the
// network would still admit one of them (mergeEmit).
type emitBatch struct {
	entry int // producing network-entry index; -1 for internal events
	msgs  []model.Message
	fps   []codec.Fingerprint
	lazy  *lazyEmit
}

// lazyEmit is the deferred re-execution of a fingerprint-only emission
// batch: the parent state and the event whose handler produced it. Node
// states are immutable once visited, so holding the state is safe.
type lazyEmit struct {
	state model.State
	ev    model.Event
}

// discovery is one newly visited node state awaiting its deferred
// invariant checks.
type discovery struct {
	ns    *nodeState
	entry int // producing network-entry index; -1 for internal events
}

// halted reports whether the phase must stop promptly: the shared halt flag
// in parallel mode, the checker's stop flag in canonical mode.
func (r *nodeRun) halted() bool {
	if r.halt != nil {
		return r.halt.Load()
	}
	return r.c.stopped
}

// charge accounts for one handler execution. Canonical mode charges the
// global counters so MaxTransitions truncates exactly like a sequential
// run; parallel mode (only entered with MaxTransitions unset) counts
// locally and polls the wall-clock deadline on the shared cadence.
func (r *nodeRun) charge() bool {
	if r.halt == nil {
		return r.c.chargeTransition()
	}
	if r.halt.Load() {
		return false
	}
	if r.c.pollDeadline(&r.deadlineTick) {
		r.halt.Store(true)
		return false
	}
	r.transitions++
	return true
}

// sweepActions is the internal-events sweep of one node: execute the
// enabled actions of every unprocessed state, including states discovered
// during the sweep itself (the list grows while iterating).
func (r *nodeRun) sweepActions() {
	c := r.c
	sp := c.spaces[r.node]
	for i := 0; i < len(sp.states); i++ {
		ns := sp.states[i]
		if ns.actionsDone || r.halted() {
			continue
		}
		ns.actionsDone = true
		if c.opt.MaxPathDepth > 0 && ns.depth >= c.opt.MaxPathDepth {
			continue
		}
		if r.runActions(ns) {
			r.ran = true
		}
	}
}

// runActions executes the internal actions enabled at s, subject to the
// per-node, per-pass local-event budget of §4.2. It reports whether any
// handler ran. A worker replica captures a record of every execution whose
// parent falls in its fingerprint range.
func (r *nodeRun) runActions(s *nodeState) bool {
	c := r.c
	ran := false
	for ai, a := range c.m.Actions(s.node, s.state) {
		if r.halted() {
			break
		}
		if c.localExecuted[s.node] >= c.localBound {
			s.suppressed = true
			r.suppressed = true
			break
		}
		if !r.charge() {
			break
		}
		c.localExecuted[s.node]++
		ran = true
		out := r.step(s, model.ActEvent(a), nil, ai)
		if c.log.owns(s.fp) {
			c.log.batch.Acts = append(c.log.batch.Acts, ActionRecord{Node: int(s.node), Parent: s.fp,
				Action: ai, Rejected: out.Rejected, Succ: out.Succ, Emitted: slices.Clone(out.Emitted)})
		}
	}
	return ran
}

// sweepDeliveries is the network-events sweep of one node: every epoch
// entry destined here executes on every visited state past its Applied
// prefix. Entries are processed in index order, so the per-node buffers
// come out pre-sorted by entry tag.
func (r *nodeRun) sweepDeliveries(ep netstate.Epoch) {
	c := r.c
	sp := c.spaces[r.node]
	for i := 0; i < ep.Len(); i++ {
		if r.halted() || r.capped() {
			return
		}
		e := ep.Entry(i)
		if int(e.Msg.Dst()) != r.node {
			continue
		}
		r.deliverEntry(e, i, sp)
	}
}

// deliverEntry executes one entry on every uncovered state of its
// destination node and advances the Applied prefix. A delivery-cap pause
// records the exact resume position; a halt (stop criterion) covers the
// whole prefix like the sequential algorithm, whose pass ends there anyway.
func (r *nodeRun) deliverEntry(e *netstate.Entry, i int, sp *space) {
	limit := len(sp.states)
	j := e.Applied
	for ; j < limit; j++ {
		if r.halted() {
			break
		}
		if r.capped() {
			if j > e.Applied {
				e.Applied = j
				r.advanced = true
			}
			return
		}
		r.deliver(e, sp.states[j], i)
	}
	if e.Applied < limit {
		e.Applied = limit
		r.advanced = true
	}
}

// deliver executes message entry e on node state s, unless the path-depth
// bound or s's history (the message was already delivered on the way to s)
// rules the pair out. A worker replica captures every owned pair, rejections
// and duplicate successors included: ~85% of deliveries land on visited
// successors, and those records are the ones that let the coordinator skip
// the handler call entirely.
func (r *nodeRun) deliver(e *netstate.Entry, s *nodeState, entry int) {
	c := r.c
	if c.opt.MaxPathDepth > 0 && s.depth >= c.opt.MaxPathDepth {
		return
	}
	if s.history.contains(e.EventFingerprint()) {
		return
	}
	if !r.charge() {
		return
	}
	r.delivered++
	out := r.step(s, model.RecvEvent(e.Msg), e, entry)
	if c.log.owns(s.fp) {
		c.log.batch.Dels = append(c.log.batch.Dels, DeliveryRecord{Entry: entry, Parent: s.fp,
			Rejected: out.Rejected, Succ: out.Succ, Emitted: slices.Clone(out.Emitted)})
	}
}

// step is the one transition step of exploration, lines 6 and 8 of Figure 9
// alike: the already charged event ev runs on node state s, and the outcome
// comes back for the caller's capture, its emission fingerprints aliasing the
// run's phase buffer. For a delivery e is the network entry and slot its
// index in I+; for an internal action e is nil and slot the action's index in
// the machine's enumeration at s. Either way slot is what the edge keeps to
// find its event again (pred.src).
//
// A round-log hint stands in for the execution where it can: a recorded
// rejection is trusted outright, and a recorded successor already in the
// visited set resolves to a predecessor edge plus a fingerprint-only emission
// batch (sequential addNext buffers the emissions before the duplicate
// lookup, so they must enter the merge; mergeEmit materializes them only if
// I+ would admit one). A recorded new successor needs the real objects, so
// the handler runs — exactly what a run without hints pays. The transition is
// charged before any of this, so counters match the plain run bit-for-bit
// whatever the hints say. A hint the execution contradicts taints the round:
// the local truth is used and the attached sources answer at the barrier.
func (r *nodeRun) step(s *nodeState, ev model.Event, e *netstate.Entry, slot int) outcome {
	c := r.c
	node, entry := int(s.node), -1
	edge := pred{prev: int32(s.seq), src: int32(slot), kind: ev.Kind}
	if e != nil {
		node, entry = -1, slot
		edge.msgFP = e.FP
	}
	hint, hinted := c.log.hint(node, slot, s.fp)
	if hinted {
		if hint.Rejected {
			r.rejections++
			return hint
		}
		if existing := c.spaces[s.node].lookup(hint.Succ); existing != nil {
			if len(hint.Emitted) > 0 {
				r.emits = append(r.emits, emitBatch{entry: entry, fps: hint.Emitted,
					lazy: &lazyEmit{state: s.state, ev: ev}})
			}
			edge.eventFP = eventFP(ev, e)
			c.addPred(existing, edge, hint.Emitted)
			return hint
		}
	}
	cp := r.copyOf(s.state)
	next, emitted := ev.Handle(c.m, cp)
	if next == nil {
		r.spare = cp
		r.rejections++
		if hinted && r.taint == nil {
			r.taint = errors.New("record accepts an event the handler rejects")
		}
		return outcome{Rejected: true}
	}
	edge.eventFP = eventFP(ev, e)
	out, visited := r.addNext(s, edge, next, emitted, e, entry)
	if visited && next == cp {
		r.spare = cp
	}
	if hinted && out.Succ != hint.Succ && r.taint == nil {
		r.taint = errors.New("record successor diverged from execution")
	}
	return out
}

// copyOf is the private copy of s a handler runs on: the run's spare
// overwritten with s when s can be recycled (model.Recycler), a fresh Clone
// otherwise. The spare is handed out once; step gives a copy back only when
// nothing kept it.
func (r *nodeRun) copyOf(s model.State) model.State {
	if rc, ok := s.(model.Recycler); ok && r.spare != nil {
		cp := rc.CloneInto(r.spare)
		r.spare = nil
		return cp
	}
	return s.Clone()
}

// eventFP is ev's fingerprint. The receive event is identical for every
// state its entry executes on, so a delivery memoizes it on the entry (owned
// by this worker, like Applied) instead of re-hashing the message per pair.
func eventFP(ev model.Event, e *netstate.Entry) codec.Fingerprint {
	if e == nil {
		return ev.Fingerprint()
	}
	if e.RecvEventFP == 0 {
		e.RecvEventFP = ev.Fingerprint()
	}
	return e.RecvEventFP
}

// addNext is Procedure addNextState of Figure 9, split around the round
// barrier: the successor joins LSn (and records its predecessor edge)
// immediately — the worker owns its node's space — while the generated
// messages, the interest key and the deferred invariant checks are buffered
// for the barrier.
// edge, from prev, arrives complete but for the generated-message
// fingerprints, which are hashed into the run's phase buffer; e is the
// delivered entry (nil for internal events) and entry its index (-1). It
// returns the accepted outcome — successor and emission fingerprints, both
// computed here anyway, so a worker replica's capture never re-hashes — and
// whether the successor was already visited, in which case the space did not
// keep next.
func (r *nodeRun) addNext(prev *nodeState, edge pred, next model.State, emitted []model.Message,
	e *netstate.Entry, entry int) (_ outcome, visited bool) {

	c := r.c
	var gen []codec.Fingerprint
	if len(emitted) > 0 {
		lo := len(r.fps)
		for _, m := range emitted {
			r.fps = append(r.fps, model.MessageFingerprint(m))
		}
		gen = r.fps[lo:len(r.fps):len(r.fps)]
		r.emits = append(r.emits, emitBatch{entry: entry, msgs: emitted, fps: gen})
	}
	out := outcome{Succ: model.StateFingerprint(next), Emitted: gen}
	if out.Succ == prev.fp {
		// A self-loop, close to half of all transitions: the successor is
		// prev itself, which needs no lookup and records no edge. Its
		// emissions are in the batch already.
		return out, true
	}
	sp := c.spaces[prev.node]
	if existing := sp.lookup(out.Succ); existing != nil {
		// The state exists: only a predecessor edge is added (the paper
		// keeps all immediate predecessors). The history rule (i) of §4.2
		// is deliberately not applied to existing states, matching the
		// paper's simplification.
		c.addPred(existing, edge, gen)
		return out, true
	}

	ns := &nodeState{
		node:    prev.node,
		state:   next,
		fp:      out.Succ,
		depth:   prev.depth + 1,
		history: prev.history,
		preds:   []pred{edge},
	}
	sp.keep(&ns.preds[0], gen)
	if e != nil {
		ns.history = &historyNode{parent: prev.history, fp: e.EventFingerprint()}
	}
	sp.add(ns)
	if ns.depth > r.maxDepth {
		r.maxDepth = ns.depth
	}
	r.news = append(r.news, discovery{ns: ns, entry: entry})
	return out, false
}

// runPhase executes one sweep of a round on the pass's per-node runs, reset,
// and returns them for the barrier: the internal events, or — with
// deliveries set — the network events of one epoch snapshot. In parallel
// mode every node sweeps its own share on the worker pool (entries partition
// by destination) under a shared halt flag. Canonical mode runs inline in
// the sequential algorithm's order: actions node by node, deliveries
// interleaved in entry order — the exact charging order, which is what
// makes a MaxTransitions cut-off land on the same transition for every
// worker count.
func (c *checker) runPhase(parallel, deliveries bool) []*nodeRun {
	var halt *atomic.Bool
	if parallel {
		halt = new(atomic.Bool)
	}
	runs := c.runs
	for _, r := range runs {
		r.reset(halt)
	}
	ep := c.net.Epoch()
	sweep := func(n int) { runs[n].sweepActions() }
	if deliveries {
		sweep = func(n int) { runs[n].sweepDeliveries(ep) }
	}
	switch {
	case parallel:
		c.runParallel(len(runs), sweep)
		if halt.Load() {
			// Only the wall-clock deadline raises the flag mid-phase.
			c.stop(obs.StopBudget)
		}
	case deliveries:
		for i := 0; i < ep.Len() && !c.stopped; i++ {
			e := ep.Entry(i)
			dst := int(e.Msg.Dst())
			if dst < 0 || dst >= len(runs) || runs[dst].capped() {
				continue
			}
			runs[dst].deliverEntry(e, i, c.spaces[dst])
		}
	default:
		for n := range runs {
			sweep(n)
		}
	}
	return runs
}

// mergePhase is the round barrier, the same after either sweep: the per-node
// buffers enter I+, and the discoveries get their interest keys and then
// their deferred checks in the order the sequential algorithm would have
// produced them, so entry indexes, duplicate drops, key ids, counters and
// bugs are identical for every worker count. That order is
// ascending by producing entry, then by node: the delivery sweep interleaves
// nodes entry by entry (an entry has one destination, and within it the
// node's execution order is already right), and internal events all carry
// entry -1, which leaves them in node order — the order of the sequential
// action sweep. A discovery is checked against the prefix view the
// sequential interleaving exposes at that moment: every node's discoveries
// from earlier (entry, node) groups and nothing later. It reports whether
// the sweep made progress. Every buffer it reads is emptied on the way out,
// keeping its array for the next phase and pinning nothing.
func (c *checker) mergePhase(runs []*nodeRun) bool {
	progress := false
	emits, news := c.phaseEmits[:0], c.phaseNews[:0]
	defer func() {
		clear(emits)
		clear(news)
		c.phaseEmits, c.phaseNews = emits[:0], news[:0]
		for _, r := range runs {
			clear(r.emits)
			clear(r.news)
			r.emits, r.news, r.fps = r.emits[:0], r.news[:0], r.fps[:0]
		}
	}()
	for _, r := range runs {
		c.res.Stats.Transitions += r.transitions
		c.res.Stats.Rejections += r.rejections
		c.res.Stats.NodeStates += len(r.news)
		if r.maxDepth > c.res.Stats.MaxDepth {
			c.res.Stats.MaxDepth = r.maxDepth
		}
		if r.suppressed {
			c.passSuppressed = true
		}
		if r.ran || r.advanced {
			progress = true
		}
		if r.taint != nil && c.log.taint == nil {
			c.log.taint = r.taint
		}
		emits = append(emits, r.emits...)
		news = append(news, r.news...)
	}
	slices.SortStableFunc(emits, func(a, b emitBatch) int { return cmp.Compare(a.entry, b.entry) })
	for _, b := range emits {
		c.mergeEmit(b)
	}
	slices.SortStableFunc(news, func(a, b discovery) int { return cmp.Compare(a.entry, b.entry) })
	for _, d := range news {
		c.internKey(d.ns)
	}

	// The running view starts at the phase-start list lengths and grows by
	// one (entry, node) group at a time.
	view := c.phaseStarts(runs)
	defer c.suspendStop()()
	for i := 0; i < len(news); {
		entry, node := news[i].entry, news[i].ns.node
		j := i
		for j < len(news) && news[j].entry == entry && news[j].ns.node == node {
			j++
		}
		// The group's own node never participates in its own checks; expose
		// the group fully for uniformity.
		view[node] += j - i
		for ; i < j; i++ {
			if c.stopped {
				return progress
			}
			c.checkDiscovery(news[i].ns, view)
		}
	}
	return progress
}

// suspendStop prepares the barrier's deferred checks to run after an
// exploration stop (transition cap or deadline) fired mid-phase: in the
// sequential algorithm every discovery is charged before the cap and
// checked immediately, so its checks always start un-stopped. The stop flag
// is cleared for the duration of the checks and re-asserted by the returned
// restore func; a stop raised by the checks themselves (a confirmed
// first bug, or the deadline observed inside a check) still halts the
// remaining checks through c.stopped as usual.
func (c *checker) suspendStop() func() {
	explorationStopped, explorationReason := c.stopped, c.reason
	c.stopped = false
	return func() {
		if explorationStopped && !c.stopped {
			// In the sequential interleaving these checks all ran before the
			// exploration stop was observed, so a stop the checks raised
			// themselves keeps its own reason; otherwise the suspended
			// exploration stop is re-asserted with its original reason.
			c.stopped = true
			c.reason = explorationReason
		}
	}
}

// mergeEmit appends one emission batch to I+. A materialized batch adds its
// messages directly. A fingerprint-only batch (from a trusted round-log record)
// is resolved lazily: if the network would drop every emitted fingerprint as
// a duplicate anyway, the whole batch is accounted as dropped without ever
// building the messages — the common case for recorded duplicates — and only
// an admissible batch pays one handler re-execution. A re-execution whose
// emissions disagree with the record latches the log's taint; the local
// truth is used and the attached sources answer for it at the round barrier.
func (c *checker) mergeEmit(b emitBatch) {
	msgs, fps := b.msgs, b.fps
	if b.lazy != nil {
		if !c.net.AnyAdmissible(fps) {
			c.res.Stats.DuplicatesDropped += len(fps)
			return
		}
		_, emitted := b.lazy.ev.Apply(c.m, b.lazy.state)
		real := fingerprintAll(emitted)
		if !slices.Equal(real, fps) && c.log.taint == nil {
			c.log.taint = errors.New("record emissions diverged from re-execution")
		}
		msgs, fps = emitted, real
	}
	added := c.net.AddAllFP(msgs, fps)
	c.res.Stats.DuplicatesDropped += len(msgs) - len(added)
}

func fingerprintAll(msgs []model.Message) []codec.Fingerprint {
	if len(msgs) == 0 {
		return nil
	}
	fps := make([]codec.Fingerprint, len(msgs))
	for i, m := range msgs {
		fps[i] = model.MessageFingerprint(m)
	}
	return fps
}

// phaseStarts recovers each node's visited-list length at phase start from
// the current length minus this phase's discoveries.
func (c *checker) phaseStarts(runs []*nodeRun) []int {
	pre := make([]int, len(runs))
	for n, r := range runs {
		pre[n] = len(c.spaces[n].states) - len(r.news)
	}
	return pre
}

// checkDiscovery runs the deferred per-discovery checks in their canonical
// order: node-local invariants first, then the system-state combination
// check, both against the discovery's virtual-time prefix view.
func (c *checker) checkDiscovery(ns *nodeState, view []int) {
	c.checkLocalInvariants(ns, view)
	if !c.stopped {
		c.checkNewState(ns, view)
	}
}

// runParallel runs fn(0..n-1) across the worker pool and waits for all of
// them. Work items must be independent; callers use it for pure
// precomputation whose results are merged in canonical order afterwards.
func (c *checker) runParallel(n int, fn func(int)) {
	if n == 0 {
		return
	}
	workers := c.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
