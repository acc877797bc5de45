package core

import (
	"time"

	"lmc/internal/obs"
	"lmc/internal/stats"
)

// emitter is the local checker's side of the run-event layer. All emission
// happens on the sequential merge goroutine, at the structural barriers the
// engine already has (round merges, pass boundaries, run end): events
// produced since the previous barrier are derived from counter deltas,
// buffered, and flushed in one batch. Workers never see the observer, so an
// active observer cannot perturb parallel determinism, and a nil observer
// reduces every emitter method to a single branch.
type emitter struct {
	o     obs.Observer
	begin time.Time

	// every is the heartbeat interval (<= 0 disables); nextBeat the elapsed
	// time at which the next heartbeat is due.
	every    time.Duration
	nextBeat time.Duration

	pass, round int

	// last is the counter snapshot at the previous barrier; lastBugs the
	// confirmed-bug count already reported. Deltas between barriers become
	// the batch events.
	last     stats.Counters
	lastBugs int

	buf []obs.Event
}

// newEmitter resolves the heartbeat default: one second when an observer is
// attached, disabled otherwise or when every is negative.
func newEmitter(o obs.Observer, every time.Duration, begin time.Time) emitter {
	e := emitter{o: o, begin: begin}
	if o != nil {
		switch {
		case every > 0:
			e.every = every
		case every == 0:
			e.every = time.Second
		}
		e.nextBeat = e.every
	}
	return e
}

func (e *emitter) active() bool { return e.o != nil }

// push buffers one event, stamping the shared coordinates.
func (e *emitter) push(ev obs.Event) {
	ev.Checker = "lmc"
	ev.Elapsed = time.Since(e.begin)
	ev.Pass = e.pass
	ev.Round = e.round
	e.buf = append(e.buf, ev)
}

// flush delivers the buffered batch, in order.
func (e *emitter) flush() {
	for i := range e.buf {
		e.o.OnEvent(e.buf[i])
	}
	e.buf = e.buf[:0]
}

func (e *emitter) runStart() {
	if !e.active() {
		return
	}
	e.push(obs.Event{Kind: obs.KindRunStart})
	e.flush()
}

func (e *emitter) passStart(pass, localBound int) {
	e.pass = pass
	e.round = 0
	if !e.active() {
		return
	}
	e.push(obs.Event{Kind: obs.KindPassStart, LocalBound: localBound})
	e.flush()
}

func (e *emitter) roundStart() {
	e.round++
	if !e.active() {
		return
	}
	e.push(obs.Event{Kind: obs.KindRoundStart})
}

// barrier emits everything that happened since the previous barrier —
// system-state batches, soundness calls, preliminary violations, newly
// confirmed violations — plus, when roundEnd is set, the round-end marker,
// and a heartbeat when one is due. It then flushes the whole buffer.
func (e *emitter) barrier(res *Result, probe *stats.MemProbe, roundEnd bool) {
	if !e.active() {
		return
	}
	cur := res.Stats
	if d := cur.SystemStates - e.last.SystemStates; d > 0 {
		e.push(obs.Event{
			Kind:   obs.KindSystemStates,
			Count:  d,
			Phases: obs.PhaseTimes{SystemStates: cur.SystemStateTime - e.last.SystemStateTime},
		})
	}
	if d := cur.SoundnessCalls - e.last.SoundnessCalls; d > 0 || cur.SequencesChecked > e.last.SequencesChecked {
		e.push(obs.Event{
			Kind:      obs.KindSoundness,
			Count:     d,
			Sequences: cur.SequencesChecked - e.last.SequencesChecked,
			Phases:    obs.PhaseTimes{Soundness: cur.SoundnessTime - e.last.SoundnessTime},
		})
	}
	if d := cur.PreliminaryViolations - e.last.PreliminaryViolations; d > 0 {
		e.push(obs.Event{Kind: obs.KindPrelimViolations, Count: d})
	}
	for _, b := range res.Bugs[e.lastBugs:] {
		e.push(obs.Event{
			Kind:      obs.KindViolation,
			Invariant: b.Violation.Invariant,
			Detail:    b.Violation.Detail,
			Depth:     b.Depth,
		})
	}
	e.lastBugs = len(res.Bugs)
	if roundEnd {
		e.push(obs.Event{Kind: obs.KindRoundEnd, Depth: cur.MaxDepth, Count: cur.NodeStates})
	}
	e.last = cur

	if e.every > 0 {
		if el := time.Since(e.begin); el >= e.nextBeat {
			e.heartbeat(cur, probe, el)
			e.nextBeat = el + e.every
		}
	}
	e.flush()
}

func (e *emitter) heartbeat(cur stats.Counters, probe *stats.MemProbe, el time.Duration) {
	cur.Elapsed = el
	e.push(obs.Event{
		Kind:      obs.KindHeartbeat,
		Counters:  cur,
		HeapBytes: probe.Sample(),
		Phases:    obs.Attribution(&cur, el),
	})
}

// shardRound buffers one shard's per-round record contribution; it is
// flushed with the rest of the round's batch at the merge barrier.
func (e *emitter) shardRound(shard, shards, records int) {
	if !e.active() {
		return
	}
	e.push(obs.Event{Kind: obs.KindShardRound, Shard: shard, Shards: shards, Count: records})
}

// checkpoint buffers the round's checkpoint event (the digest's state total,
// or the sink error that disabled checkpointing); flushed with the round.
func (e *emitter) checkpoint(states int, detail string) {
	if !e.active() {
		return
	}
	e.push(obs.Event{Kind: obs.KindCheckpoint, Count: states, Detail: detail})
}

// resume buffers a resume event: a round held to a stored digest, or — with
// a non-empty detail — a digest divergence against the checkpoint.
func (e *emitter) resume(states int, detail string) {
	if !e.active() {
		return
	}
	e.push(obs.Event{Kind: obs.KindResume, Count: states, Detail: detail})
}

// shardDegraded reports the fall back from sharded to in-process
// exploration. It flushes immediately — degradation can happen right before
// a long in-process round, and the operator should see it now.
func (e *emitter) shardDegraded(shard, shards int, detail string) {
	if !e.active() {
		return
	}
	e.push(obs.Event{Kind: obs.KindShardDegraded, Shard: shard, Shards: shards, Detail: detail})
	e.flush()
}

// runEnd emits any leftover deltas (the fixpoint drain runs after the last
// round barrier) and the final run-end event. res.Stats.Elapsed must
// already be set.
func (e *emitter) runEnd(res *Result, probe *stats.MemProbe) {
	if !e.active() {
		return
	}
	e.barrier(res, probe, false)
	cur := res.Stats
	e.push(obs.Event{
		Kind:     obs.KindRunEnd,
		Reason:   res.StopReason,
		Depth:    cur.MaxDepth,
		Counters: cur,
		Phases:   obs.Attribution(&cur, cur.Elapsed),
	})
	e.flush()
}
