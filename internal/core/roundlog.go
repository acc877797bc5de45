package core

import (
	"context"
	"math/bits"
	"time"

	"lmc/internal/codec"
	"lmc/internal/model"
	"lmc/internal/obs"
)

// The round log. The checker's state is two append-only structures (the
// per-node LS sets and the monotonic I+), so one exploration round is fully
// described by an ordered log of fingerprint-only records (records.go) plus a
// replica digest. Everything that distributes or persists a run is a client
// of that log, attached at one seam:
//
//   - A roundSource prepares the round before the walks run and verifies the
//     post-round digest: a shard fleet fills the hint tables with the records
//     its workers streamed (fleetSource); a stored checkpoint only fetches
//     the digest a previous identical run ended the round on (resumeSource).
//   - The transition step (nodeRun.step, the one place a handler executes)
//     consults the step-hint table: a recorded rejection costs nothing, a
//     record whose successor is already visited resolves to a predecessor
//     edge with no handler execution at all. Events with no record execute
//     inline.
//   - The capture buffer collects a worker replica's records: every execution
//     whose parent fingerprint falls in its range (owns), rejections and
//     duplicate successors included — those are what save the coordinator
//     the handler call.
//   - A roundSink receives the digest at the barrier — a CheckpointSink
//     stores it (checkpointDrain), a worker replica frames it with its
//     capture to its coordinator (workerDrain).
//
// Resume is a verified re-run. A model.State can be encoded, never decoded,
// so a state is re-reached, not restored: a record spares a handler call only
// when its successor is already visited, a discovery's never is, and a
// resumed run executes exactly a fresh run's handlers (EXPERIMENTS.md A9).
// A checkpoint therefore carries no records, only the value stored to detect
// a fault — the digest, which tells the resumed run it is still the run the
// store was written by.
//
// Records are hints, never authority: the walk IS the sequential algorithm
// and charges every transition before consulting a table, so any record
// subset — including the empty set — yields the bit-for-bit sequential
// result, Counters included. That is what makes every failure policy a
// detach: each adapter below decides what its own failure means (a lost
// fleet degrades to in-process, a diverged checkpoint stops the run, a
// failing sink is dropped) and returns false, and the round loop never asks
// who is attached.
//
// Correctness of a trusted record rests on the model.Machine determinism
// contract (equal state + message in, equal successor + emissions out) that
// fingerprint dedup and witness replay already rely on. A record the local
// execution contradicts — it accepted what the handler rejects, names a
// successor other than the executed one, or lists emissions other than the
// re-executed ones — latches taint; the fleet treats it like a digest
// mismatch. (A recorded rejection, and a record whose successor is visited
// and whose emissions I+ would drop anyway, are never executed, so never
// contradicted.)
type roundLog struct {
	hints map[hintKey]outcome
	taint error

	// owner/owners select the worker-replica filter (owners > 1): capture
	// what falls in range owner of owners. A replica runs the canonical
	// single-goroutine walk, so its captures append to batch in merge order.
	owner, owners int
	batch         RoundBatch

	sources []roundSource
	sink    roundSink
}

// hintKey identifies one transition step of a round: a delivery by node -1,
// the network-entry index and the parent state's fingerprint (an entry has a
// single destination); an internal action by its node, its index in the
// machine's enumeration and the parent.
type hintKey struct {
	node, slot int
	parent     codec.Fingerprint
}

// roundSource prepares a round (fill) and checks its outcome (verify). Both
// methods run on the sequential merge goroutine and return false to detach
// the source for the rest of the run, after applying its own failure policy.
// finish is called on every source still attached when the run ends, before
// the engine stops its clock.
type roundSource interface {
	fill(c *checker, round int) bool
	verify(c *checker, round int, d ShardDigest, progress bool) bool
	finish(c *checker)
}

// roundSink receives the round's digest (and reads the capture it wants) at
// the barrier; false detaches it.
type roundSink interface {
	drain(c *checker, round int, d ShardDigest, progress bool) bool
}

// beginRound resets the one-round state and lets every source prepare.
func (c *checker) beginRound(round int) {
	lg := &c.log
	lg.batch = RoundBatch{Acts: lg.batch.Acts[:0], Dels: lg.batch.Dels[:0]}
	lg.keepSources(func(s roundSource) bool { return s.fill(c, round) })
}

// keepSources calls keep on every attached source, in attach order, and
// detaches the ones it returns false for.
func (lg *roundLog) keepSources(keep func(roundSource) bool) {
	kept := lg.sources[:0]
	for _, s := range lg.sources {
		if keep(s) {
			kept = append(kept, s)
		}
	}
	lg.sources = kept
}

// finishSources ends the run for every attached source.
func (c *checker) finishSources() {
	for _, s := range c.log.sources {
		s.finish(c)
	}
	c.log.sources = nil
}

// endRound is the barrier half: one digest, handed first to the sources that
// verify it and then to the sink that stores it. progress false marks the
// pass fixpoint. It runs before the event barrier so the adapters' events
// flush with the round's batch and a round cancelled at that barrier is
// already stored.
func (c *checker) endRound(round int, progress bool) {
	lg := &c.log
	if len(lg.sources) > 0 || lg.sink != nil {
		d := c.replicaDigest()
		lg.keepSources(func(s roundSource) bool { return s.verify(c, round, d, progress) })
		if lg.sink != nil && !lg.sink.drain(c, round, d, progress) {
			lg.sink = nil
		}
	}
	lg.hints, lg.taint = nil, nil
}

// load indexes one batch of hints for the round's walks. The table holds
// outcomes by value, their emission lists pointing into the loaded batch, so
// a round that loads nearly every delivery allocates nothing per record.
func (lg *roundLog) load(b RoundBatch) {
	if lg.hints == nil && len(b.Dels)+len(b.Acts) > 0 {
		lg.hints = make(map[hintKey]outcome, len(b.Dels)+len(b.Acts))
	}
	for i := range b.Dels {
		r := &b.Dels[i]
		lg.hints[hintKey{-1, r.Entry, r.Parent}] = outcome{r.Rejected, r.Succ, r.Emitted}
	}
	for i := range b.Acts {
		r := &b.Acts[i]
		lg.hints[hintKey{r.Node, r.Action, r.Parent}] = outcome{r.Rejected, r.Succ, r.Emitted}
	}
}

// hint looks up the round's record for one transition step. The explicit
// nil-table test is the whole cost on runs with no source attached.
func (lg *roundLog) hint(node, slot int, parent codec.Fingerprint) (outcome, bool) {
	if lg.hints == nil {
		return outcome{}, false
	}
	out, ok := lg.hints[hintKey{node, slot, parent}]
	return out, ok
}

// owns reports whether this replica captures records for the given
// fingerprint; false everywhere but on worker replicas.
func (lg *roundLog) owns(fp codec.Fingerprint) bool {
	return lg.owners > 1 && ShardOwner(fp, lg.owners) == lg.owner
}

// replicaDigest fingerprints the replica's deterministic state after a
// round. Each space maintains its visited-list combination incrementally
// (space.chain), so the digest costs O(nodes), not O(visited states).
func (c *checker) replicaDigest() ShardDigest {
	h := codec.NewHasher()
	states := 0
	for _, sp := range c.spaces {
		h.Add(codec.Fingerprint(len(sp.states)))
		h.Add(sp.chain.Sum())
		states += len(sp.states)
	}
	return ShardDigest{
		NetLen: c.net.Len(),
		Net:    c.net.Digest(),
		States: states,
		Spaces: h.Sum(),
	}
}

// ShardLink is the coordinator's view of its worker fleet; internal/shard
// implements it over the wire protocol. Every method is called from the
// sequential merge goroutine, and the first error from any of them makes the
// run degrade: the link is finished and the run completes in-process.
type ShardLink interface {
	// Shards is the total process count, coordinator included (the
	// fingerprint space is split N ways; range 0 is the coordinator's).
	Shards() int
	// BeginPass announces a fresh pass (iterative deepening restarts
	// exploration from scratch) with its local-event bound; the workers
	// then run the pass's rounds autonomously, streaming records. The first
	// call may dial the fleet.
	BeginPass(pass, bound int) error
	// FetchRound returns every worker's records for the round, in worker
	// order. Batches collected before an error are returned with it and
	// still used — records are only hints.
	FetchRound(round int) ([]RoundBatch, error)
	// EndRound closes a completed round with the coordinator's digest. The
	// link owns the digest cadence: it compares d against the workers'
	// digests on the rounds they send one. final marks the pass fixpoint,
	// after which the workers park awaiting the next pass.
	EndRound(round int, d ShardDigest, final bool) error
	// Finish shuts the fleet down; it may be called more than once.
	Finish()
}

// fleetSource attaches a shard fleet. Its failure policy: any link error, a
// digest mismatch or a tainted record degrades the run — one typed event,
// the fleet torn down, exploration continuing in-process with whatever
// hints already arrived. A fleet that cannot be dialed degrades the same
// way, before the first round has a record. Result.Complete keeps its usual
// meaning.
//
// Every link call — the dial (the first BeginPass), the fetches, the digest
// checks and the teardown, a degradation's included — runs on the engine's
// clock and is booked to ShardWaitTime, never to the exploration phases, so
// the phases account for the whole call.
type fleetSource struct{ link ShardLink }

// fill pulls every worker's records for the round — the workers produced
// them autonomously, so in the steady state the frames are already buffered
// in the transport. A pass begins with its first round.
func (f fleetSource) fill(c *checker, round int) bool {
	defer c.bookShardWait(time.Now())
	if round == 1 {
		if err := f.link.BeginPass(c.em.pass, c.localBound); err != nil {
			return f.degrade(c, err)
		}
	}
	batches, err := f.link.FetchRound(round)
	for i, b := range batches {
		c.em.shardRound(i+1, f.link.Shards(), len(b.Acts)+len(b.Dels))
		c.log.load(b)
	}
	return err == nil || f.degrade(c, err)
}

// verify hands the link the digest unless a stop criterion fired: the pass
// is over then, and workers ignore coordinator-only criteria like the
// wall-clock budget, so divergence past a stop is expected.
func (f fleetSource) verify(c *checker, round int, d ShardDigest, progress bool) bool {
	if c.stopped {
		return true
	}
	defer c.bookShardWait(time.Now())
	err := c.log.taint
	if err == nil {
		err = f.link.EndRound(round, d, !progress)
	}
	return err == nil || f.degrade(c, err)
}

func (f fleetSource) degrade(c *checker, err error) bool {
	f.link.Finish()
	c.em.shardDegraded(-1, f.link.Shards(), err.Error())
	return false
}

// finish tears the fleet down at the end of the run.
func (f fleetSource) finish(c *checker) {
	defer c.bookShardWait(time.Now())
	f.link.Finish()
}

// bookShardWait books the time since t0 to ShardWaitTime.
func (c *checker) bookShardWait(t0 time.Time) {
	c.res.Stats.ShardWaitTime += time.Since(t0)
}

// CheckpointSink receives one RoundCheckpoint per completed round, on the
// sequential merge goroutine. An error disables checkpointing for the rest of
// the run — the run continues and a KindCheckpoint event carries the detail.
type CheckpointSink interface {
	OnRoundCheckpoint(RoundCheckpoint) error
}

// ResumeSource supplies the stored rounds of a previous run of the
// identical spec. RoundHints is called once per (pass, round) before the
// round's walks, and the engine reads the checkpoint's Digest only;
// ok=false means the source has no checkpoint for that round (the run has
// caught up with the stored frontier) and the source is not consulted again.
type ResumeSource interface {
	RoundHints(pass, round int) (cp RoundCheckpoint, ok bool)
}

// resumeSource holds a re-run to a stored one. Its failure policy: a round
// whose digest disagrees with the stored one (changed handler code, changed
// options, corrupted store) stops the run with StopResumeDiverged so the
// caller can invalidate the checkpoint and re-run fresh. A truncated
// checkpoint is no failure: the source detaches, the rest runs unverified.
type resumeSource struct {
	src  ResumeSource
	want ShardDigest
}

func (s *resumeSource) fill(c *checker, round int) bool {
	cp, ok := s.src.RoundHints(c.em.pass, round)
	if !ok {
		return false
	}
	s.want = cp.Digest
	c.em.resume(s.want.States, "")
	return true
}

func (s *resumeSource) finish(*checker) {}

// verify skips a round a stop criterion cut short: it is incomplete and its
// digest means nothing.
func (s *resumeSource) verify(c *checker, round int, d ShardDigest, progress bool) bool {
	if c.stopped || d == s.want {
		return true
	}
	c.em.resume(d.States, "post-round digest mismatch against stored checkpoint")
	c.stop(obs.StopResumeDiverged)
	return false
}

// checkpointDrain hands each completed round's digest to a CheckpointSink. A
// round a stop criterion cut short is skipped — a partial checkpoint would
// poison a resume. Its failure policy: a sink error is reported once and the
// sink dropped; the run continues.
type checkpointDrain struct{ sink CheckpointSink }

func (k checkpointDrain) drain(c *checker, round int, d ShardDigest, progress bool) bool {
	if c.stopped {
		return true
	}
	err := k.sink.OnRoundCheckpoint(RoundCheckpoint{
		Pass:       c.em.pass,
		Round:      round,
		LocalBound: c.localBound,
		Digest:     d,
		Counters:   c.res.Stats,
	})
	if err != nil {
		c.em.checkpoint(d.States, err.Error())
		return false
	}
	c.em.checkpoint(d.States, "")
	return true
}

// ShardOwner maps a state fingerprint to its owning shard: contiguous
// fingerprint ranges via the high word of fp × shards, so the partition
// needs no modulo and stays stable for any shard count.
func ShardOwner(fp codec.Fingerprint, shards int) int {
	if shards <= 1 {
		return 0
	}
	hi, _ := bits.Mul64(uint64(fp), uint64(shards))
	return int(hi)
}

// CheckShardedContext runs the checker with a shard-worker fleet attached.
// Results are bit-for-bit identical to Check/CheckContext for any shard
// count; the link only redistributes handler executions. The caller owns
// the link's transport; the checker finishes the link when the run ends or
// degrades, on its clock. A link may dial its fleet at the first BeginPass:
// a dial error degrades the run like any other link error.
func CheckShardedContext(ctx context.Context, m model.Machine, start model.SystemState,
	opt Options, link ShardLink) (*Result, error) {

	if err := opt.Validate(); err != nil {
		return nil, err
	}
	return run(ctx, m, start, opt, fleetSource{link}), nil
}

// ShardSink receives every round a worker replica runs: the records captured
// for the replica's fingerprint range, whether the round made progress
// (false is the pass fixpoint), and the post-round digest. complete is false
// when a replicated stop criterion (MaxTransitions) cut the round short —
// the records are still valid hints, the digest is not comparable. The batch
// slices are valid until the call returns. An error ends the worker's pass.
type ShardSink interface {
	EndRound(round int, progress, complete bool, b RoundBatch, d ShardDigest) error
}

// workerDrain feeds a ShardSink. Its failure policy: the only peer is the
// coordinator, so a sink error means nobody is reading — stop the replica.
type workerDrain struct {
	out ShardSink
	err error
}

func (k *workerDrain) drain(c *checker, round int, d ShardDigest, progress bool) bool {
	if k.err = k.out.EndRound(round, progress, !c.stopped, c.log.batch, d); k.err != nil {
		c.stop(obs.StopCancelled)
	}
	return true
}

// ShardWorker is one worker process's replica: the same checker running the
// same pass loop as the coordinator, with the capture filter set to its
// fingerprint range and a ShardSink at the barrier.
type ShardWorker struct {
	c     *checker
	drain *workerDrain
}

// NewShardWorker builds a worker replica for shard idx of count processes
// (idx ≥ 1; index 0 is the coordinator). The options must carry the
// exploration-shaping knobs of the coordinator's run (DupLimit,
// LocalBound, MaxPathDepth, MaxTransitions, InitialMessages). Invariants,
// reductions, soundness, budgets and observers are stripped — checking is
// coordinator work, a worker only explores.
func NewShardWorker(m model.Machine, start model.SystemState, opt Options,
	idx, count int, sink ShardSink) *ShardWorker {

	opt.Invariant = nil
	opt.LocalInvariants = nil
	opt.Reduction = nil
	opt.Reduce = Reductions{}
	opt.DisableSoundness = true
	opt.Budget = 0
	opt.StopAtFirstBug = false
	opt.Workers = -1
	opt.Observer = nil
	opt.RecordSeries = false
	opt.Checkpoint = nil
	opt.Resume = nil
	w := &ShardWorker{
		c:     newChecker(context.Background(), m, start, opt),
		drain: &workerDrain{out: sink},
	}
	w.c.log.owner, w.c.log.owners = idx, count
	w.c.log.sink = w.drain
	return w
}

// RunPass runs one exploration pass under the given local-event bound — the
// coordinator's own round loop, to the same fixpoint or replicated stop —
// handing every round to the sink. It returns the sink's error, if any.
func (w *ShardWorker) RunPass(bound int) error {
	w.c.localBound = bound
	w.c.pass()
	return w.drain.err
}
