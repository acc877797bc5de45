package core

import (
	"errors"
	"sort"
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

	deadlineTick int
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

// lazyEmit is the deferred re-execution closure of a fingerprint-only
// emission batch: the parent state and the message (or internal action,
// when isAct is set) whose handler produced it. Node states are immutable
// once visited, so holding the state is safe.
type lazyEmit struct {
	node  model.NodeID
	state model.State
	msg   model.Message
	act   model.Action
	isAct bool
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
// handler ran. An ActionRecord in the round log's hint table stands in for
// the execution (after the canonical charge): a recorded rejection or
// duplicate successor costs no handler call at all. On a worker replica the
// execution additionally captures a record when this replica owns the
// parent's fingerprint range.
func (r *nodeRun) runActions(s *nodeState) bool {
	c := r.c
	acts := c.m.Actions(s.node, s.state)
	if len(acts) == 0 {
		return false
	}
	ran := false
	for ai, a := range acts {
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
		if rec := c.log.action(int(s.node), s.fp, ai); rec != nil {
			ran = true
			if rec.Rejected {
				r.rejections++
				continue
			}
			if existing := c.spaces[s.node].lookup(rec.Succ); existing != nil {
				// Sequential addNext buffers the emissions before the
				// duplicate lookup, so the record's emission fingerprints
				// must enter the merge even though the successor is known;
				// they materialize lazily only if the network would admit
				// one (mergeEmit).
				ev := model.ActEvent(a)
				if len(rec.Emitted) > 0 {
					r.emits = append(r.emits, emitBatch{entry: -1, fps: rec.Emitted,
						lazy: &lazyEmit{node: s.node, state: s.state, act: a, isAct: true}})
				}
				c.addPred(existing, pred{
					prev:      s,
					kind:      ev.Kind,
					event:     ev,
					eventFP:   ev.Fingerprint(),
					generated: rec.Emitted,
				})
				continue
			}
			// New successor: the walk needs the real objects — one inline
			// execution, exactly what a run without hints pays.
		}
		next, emitted := c.m.HandleAction(s.node, s.state.Clone(), a)
		ran = true
		if next == nil {
			r.rejections++
			if c.log.owns(s.fp) {
				c.log.batch.Acts = append(c.log.batch.Acts, ActionRecord{
					Node: int(s.node), Parent: s.fp, Action: ai, Rejected: true})
			}
			continue
		}
		ev := model.ActEvent(a)
		fp, generated := r.addNext(s, ev, ev.Fingerprint(), 0, next, emitted, 0, -1)
		if c.log.owns(s.fp) {
			c.log.batch.Acts = append(c.log.batch.Acts, ActionRecord{
				Node: int(s.node), Parent: s.fp, Action: ai, Succ: fp, Emitted: generated})
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

// deliver executes message entry e's handler on node state s, unless the
// message is already in s's history.
func (r *nodeRun) deliver(e *netstate.Entry, s *nodeState, entry int) {
	c := r.c
	if c.opt.MaxPathDepth > 0 && s.depth >= c.opt.MaxPathDepth {
		return
	}
	evfp := e.EventFingerprint()
	if s.history.contains(evfp) {
		return
	}
	if !r.charge() {
		return
	}
	r.delivered++
	if rec := c.log.delivery(entry, s.fp); rec != nil {
		r.deliverRecorded(e, s, entry, rec, evfp)
		return
	}
	next, emitted := c.m.HandleMessage(s.node, s.state.Clone(), e.Msg)
	if next == nil {
		r.rejections++
		// A worker replica records owned rejections too: the trusted
		// rejection saves the coordinator the whole handler call.
		if c.log.owns(s.fp) {
			c.log.batch.Dels = append(c.log.batch.Dels, DeliveryRecord{Entry: entry, Parent: s.fp, Rejected: true})
		}
		return
	}
	ev := model.RecvEvent(e.Msg)
	// The receive event is identical for every state this entry executes
	// on; memoize its fingerprint on the entry (owned by this worker, like
	// Applied) instead of re-hashing the message per execution.
	if e.RecvEventFP == 0 {
		e.RecvEventFP = ev.Fingerprint()
	}
	fp, generated := r.addNext(s, ev, e.RecvEventFP, evfp, next, emitted, e.FP, entry)
	// A worker replica records every owned pair: ~85% of deliveries land on
	// already-visited successors, and those records are exactly the ones
	// that let the coordinator skip the handler call entirely. (A
	// checkpointed run needs only the discoveries, which the delivery
	// barrier derives from their creation edges — nothing to do here.)
	if c.log.owns(s.fp) {
		c.log.batch.Dels = append(c.log.batch.Dels, DeliveryRecord{Entry: entry, Parent: s.fp, Succ: fp, Emitted: generated})
	}
}

// deliverRecorded resolves one delivery pair from its round-log record instead
// of executing the handler. Three cases, in decreasing savings: a rejection
// is trusted outright; a successor already in the visited set resolves to a
// predecessor edge plus a fingerprint-only (lazy) emission batch, with no
// execution at all; a new successor is materialized by one inline
// re-execution — exactly what a run without hints pays for the pair. The
// transition was already charged by deliver — exactly the sequential
// charge for this pair — so counters match the plain run bit-for-bit.
func (r *nodeRun) deliverRecorded(e *netstate.Entry, s *nodeState, entry int,
	rec *DeliveryRecord, evfp codec.Fingerprint) {

	c := r.c
	if rec.Rejected {
		r.rejections++
		return
	}
	ev := model.RecvEvent(e.Msg)
	if e.RecvEventFP == 0 {
		e.RecvEventFP = ev.Fingerprint()
	}
	if existing := c.spaces[s.node].lookup(rec.Succ); existing != nil {
		// Sequential addNext buffers the emissions before the duplicate
		// lookup, so the record's emission fingerprints must enter the merge
		// even though the successor is already known.
		if len(rec.Emitted) > 0 {
			r.emits = append(r.emits, emitBatch{entry: entry, fps: rec.Emitted,
				lazy: &lazyEmit{node: s.node, state: s.state, msg: e.Msg}})
		}
		c.addPred(existing, pred{
			prev:      s,
			kind:      ev.Kind,
			event:     ev,
			eventFP:   e.RecvEventFP,
			msgFP:     e.FP,
			generated: rec.Emitted,
		})
		return
	}
	// New successor: the walk needs the real objects.
	next, emitted := c.m.HandleMessage(s.node, s.state.Clone(), e.Msg)
	if next == nil {
		// Contradicts the record; trust the local execution (the digest
		// exchange will catch a replica that trusted the record instead).
		r.rejections++
		return
	}
	r.addNext(s, ev, e.RecvEventFP, evfp, next, emitted, e.FP, entry)
}

// addNext is Procedure addNextState of Figure 9, split around the round
// barrier: the successor joins LSn (and records its predecessor edge)
// immediately — the worker owns its node's space — while the generated
// messages and the deferred invariant checks are buffered for the barrier.
// evFP is ev's fingerprint (hashed once by the caller); historyFP the
// delivery-event fingerprint for network events (zero for internal
// events); msgFP the consumed message's content fingerprint; entry the
// producing network-entry index (-1 for internal events). It returns the
// successor's state fingerprint and the generated-message fingerprints —
// both computed here anyway, so a worker replica's record capture never
// re-hashes.
func (r *nodeRun) addNext(prev *nodeState, ev model.Event, evFP, historyFP codec.Fingerprint,
	next model.State, emitted []model.Message, msgFP codec.Fingerprint, entry int) (codec.Fingerprint, []codec.Fingerprint) {

	c := r.c
	generated := make([]codec.Fingerprint, len(emitted))
	for i, m := range emitted {
		generated[i] = model.MessageFingerprint(m)
	}
	if len(emitted) > 0 {
		r.emits = append(r.emits, emitBatch{entry: entry, msgs: emitted, fps: generated})
	}

	fp := model.StateFingerprint(next)
	sp := c.spaces[prev.node]
	edge := pred{
		prev:      prev,
		kind:      ev.Kind,
		event:     ev,
		eventFP:   evFP,
		msgFP:     msgFP,
		generated: generated,
	}

	if existing := sp.lookup(fp); existing != nil {
		// The state exists: only a predecessor pointer is added (the paper
		// keeps all immediate predecessors). The history rule (i) of §4.2
		// is deliberately not applied to existing states, matching the
		// paper's simplification.
		c.addPred(existing, edge)
		return fp, generated
	}

	ns := &nodeState{
		node:    prev.node,
		state:   next,
		fp:      fp,
		depth:   prev.depth + 1,
		history: prev.history,
		preds:   []pred{edge},
	}
	if ev.Kind == model.NetworkEvent {
		ns.history = &historyNode{parent: prev.history, fp: historyFP}
	}
	ns.gen = prev.gen
	if len(generated) > 0 {
		ns.gen = &genNode{parent: prev.gen, fps: generated}
	}
	// The flow memo extends the predecessor's by this edge's delta; prev is
	// either a start state or an earlier discovery of this node, so its
	// memo is already built (flowOf re-derives it otherwise).
	var scratch [8]flowEntry
	ns.flow = mergeFlows(flowOf(prev), edgeFlow(&edge, scratch[:]))
	ns.flowDone = true
	c.project(ns)
	sp.add(ns)
	if c.keyer != nil {
		sp.classify(ns, c.keyer)
	}
	if ns.depth > r.maxDepth {
		r.maxDepth = ns.depth
	}
	r.news = append(r.news, discovery{ns: ns, entry: entry})
	return fp, generated
}

// runPhase executes one sweep of a round on fresh per-node runs and returns
// them for the barrier: the internal events, or — with deliveries set — the
// network events of one epoch snapshot. In parallel mode every node sweeps
// its own share on the worker pool (entries partition by destination) under
// a shared halt flag. Canonical mode runs inline in the sequential
// algorithm's order: actions node by node, deliveries interleaved in entry
// order — the exact charging order, which is what makes a MaxTransitions
// cut-off land on the same transition for every worker count.
func (c *checker) runPhase(parallel, deliveries bool) []*nodeRun {
	var halt *atomic.Bool
	if parallel {
		halt = new(atomic.Bool)
	}
	runs := make([]*nodeRun, len(c.spaces))
	for n := range runs {
		runs[n] = &nodeRun{c: c, node: n, halt: halt}
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
// buffers enter I+ and the deferred checks run in the order the sequential
// algorithm would have produced them, so entry indexes, duplicate drops,
// counters and bugs are identical for every worker count. That order is
// ascending by producing entry, then by node: the delivery sweep interleaves
// nodes entry by entry (an entry has one destination, and within it the
// node's execution order is already right), and internal events all carry
// entry -1, which leaves them in node order — the order of the sequential
// action sweep. A discovery is checked against the prefix view the
// sequential interleaving exposes at that moment: every node's discoveries
// from earlier (entry, node) groups and nothing later. It reports whether
// the sweep made progress.
func (c *checker) mergePhase(runs []*nodeRun) bool {
	progress := false
	var emits []emitBatch
	var news []discovery
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
		emits = append(emits, r.emits...)
		news = append(news, r.news...)
	}
	sort.SliceStable(emits, func(i, j int) bool { return emits[i].entry < emits[j].entry })
	for _, b := range emits {
		c.mergeEmit(b)
	}
	sort.SliceStable(news, func(i, j int) bool { return news[i].entry < news[j].entry })
	if c.log.discoveries {
		// A checkpointed run stores the deliveries that discovered a state;
		// internal events re-derive inline.
		for _, d := range news {
			if d.entry >= 0 {
				c.log.captureDiscovery(d.entry, d.ns)
			}
		}
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
		var emitted []model.Message
		if b.lazy.isAct {
			_, emitted = c.m.HandleAction(b.lazy.node, b.lazy.state.Clone(), b.lazy.act)
		} else {
			_, emitted = c.m.HandleMessage(b.lazy.node, b.lazy.state.Clone(), b.lazy.msg)
		}
		real := fingerprintAll(emitted)
		if !fpsEqual(real, fps) && c.log.taint == nil {
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

func fpsEqual(a, b []codec.Fingerprint) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
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
