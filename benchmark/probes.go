package main

import (
	"io"
	"time"

	"lmc/internal/codec"
	"lmc/internal/core"
	"lmc/internal/model"
	"lmc/internal/obs"
	"lmc/internal/shard"
	"lmc/internal/spec"
)

// The probes in this file decorate the seams the engine already accepts, so
// every layer is measured from outside and nothing under internal/ changes.
// They are installed only for the traced check; the checks that produce the
// end-to-end numbers run the bare machine with a nil observer. The suite
// pins the engine to sequential execution (Workers: -1), so every probe is
// called from one goroutine and keeps plain counters.

// sampleEvery is how often the spec probes time a call: Agreement runs in
// ~15 ns, so timing every call would measure the clock. One call in 1024 is
// timed and the total scaled.
const sampleEvery = 1024

// hashEvery is how often the traced machine re-hashes what a handler just
// returned: one successor in 8, chosen by a seeded offset.
const hashEvery = 8

// streamCap bounds the captured emission stream and tupleSlotCap the state
// fingerprints kept per node for the canonicalizer probe.
const (
	streamCap    = 1 << 20
	tupleSlotCap = 1 << 15
)

// clockCost is what one time.Now/time.Since pair costs by itself, measured
// at start-up. A timed call that lasts tens of nanoseconds is mostly clock,
// so every sampled interval has it taken off.
var clockCost = func() time.Duration {
	const n = 4096
	best := time.Hour
	for round := 0; round < 8; round++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			sink += uint64(time.Since(time.Now()))
		}
		if d := time.Since(t0) / n; d < best {
			best = d
		}
	}
	return best
}()

// since is time.Since less the clock's own cost.
func since(t0 time.Time) time.Duration {
	if d := time.Since(t0) - clockCost; d > 0 {
		return d
	}
	return 0
}

// tracedMachine counts and times handler executions and measures the codec
// on what they produce, where they produce it: a sampled successor is
// re-hashed the moment the handler returns it, while it is as warm in the
// cache as when the engine fingerprints it. It also captures the emission
// stream (up to streamCap messages) for the netstate probe.
type tracedMachine struct {
	inner  model.Machine
	offset int64

	handlerCalls int64
	handlerBusy  time.Duration
	actionsCalls int64
	rejected     int64
	msgsEmitted  int64
	successors   int64

	hashedStates   int64
	hashedMsgs     int64
	stateHashBusy  time.Duration
	msgHashBusy    time.Duration
	stateBytes     int64
	stateFPsByNode [][]codec.Fingerprint

	stream []model.Message
}

// traceMachine wraps m, keeping its optional capabilities visible: the
// engine finds model.Symmetric and model.RawReplayer by type assertion, so a
// wrapper that hid them would silently change what is checked.
func traceMachine(m model.Machine, seed int64) (model.Machine, *tracedMachine) {
	tm := &tracedMachine{inner: m, offset: (seed%hashEvery + hashEvery) % hashEvery,
		stateFPsByNode: make([][]codec.Fingerprint, m.NumNodes())}
	if raw, ok := m.(model.RawReplayer); ok {
		return &tracedRawMachine{tracedMachine: tm, raw: raw}, tm
	}
	return tm, tm
}

func (t *tracedMachine) Name() string                    { return t.inner.Name() }
func (t *tracedMachine) NumNodes() int                   { return t.inner.NumNodes() }
func (t *tracedMachine) Init(n model.NodeID) model.State { return t.inner.Init(n) }

func (t *tracedMachine) Actions(n model.NodeID, s model.State) []model.Action {
	t.actionsCalls++
	return t.inner.Actions(n, s)
}

func (t *tracedMachine) HandleMessage(n model.NodeID, s model.State, m model.Message) (model.State, []model.Message) {
	t0 := time.Now()
	next, out := t.inner.HandleMessage(n, s, m)
	t.handlerBusy += since(t0)
	t.capture(n, next, out)
	return next, out
}

func (t *tracedMachine) HandleAction(n model.NodeID, s model.State, a model.Action) (model.State, []model.Message) {
	t0 := time.Now()
	next, out := t.inner.HandleAction(n, s, a)
	t.handlerBusy += since(t0)
	t.capture(n, next, out)
	return next, out
}

// SymmetryClasses forwards model.Symmetric; a machine without it declares
// no classes, which the engine treats exactly like a missing capability.
func (t *tracedMachine) SymmetryClasses() [][]model.NodeID {
	if sym, ok := t.inner.(model.Symmetric); ok {
		return sym.SymmetryClasses()
	}
	return nil
}

// capture records one handler result.
func (t *tracedMachine) capture(n model.NodeID, next model.State, out []model.Message) {
	t.handlerCalls++
	if next == nil {
		t.rejected++
		return
	}
	t.successors++
	t.msgsEmitted += int64(len(out))
	if room := streamCap - len(t.stream); room > 0 {
		t.stream = append(t.stream, out[:min(len(out), room)]...)
	}
	if t.successors%hashEvery != t.offset {
		return
	}
	t0 := time.Now()
	fp := codec.HashOf(next)
	t.stateHashBusy += since(t0)
	t.hashedStates++
	if len(t.stateFPsByNode[n]) < tupleSlotCap {
		t.stateFPsByNode[n] = append(t.stateFPsByNode[n], fp)
	}
	w := codec.GetWriter()
	next.Encode(w)
	t.stateBytes += int64(w.Len())
	codec.PutWriter(w)
	for _, m := range out {
		t0 := time.Now()
		sink += uint64(codec.HashOf(m))
		t.msgHashBusy += since(t0)
		t.hashedMsgs++
	}
}

// tracedRawMachine adds model.RawReplayer for machines that wrap a real
// implementation (the actorcheck adapter).
type tracedRawMachine struct {
	*tracedMachine
	raw model.RawReplayer
}

func (t *tracedRawMachine) ReplayRaw(start model.SystemState, inflight []model.Message, events []model.Event) (model.SystemState, error) {
	return t.raw.ReplayRaw(start, inflight, events)
}

// tracedInvariant counts every evaluation and times one in sampleEvery.
type tracedInvariant struct {
	inner spec.Invariant
	calls int64
	timed int64
	busy  time.Duration
}

func (t *tracedInvariant) Name() string { return t.inner.Name() }

func (t *tracedInvariant) Check(ss model.SystemState) *spec.Violation {
	t.calls++
	if t.calls%sampleEvery != 0 {
		return t.inner.Check(ss)
	}
	t0 := time.Now()
	v := t.inner.Check(ss)
	t.busy += since(t0)
	t.timed++
	return v
}

// scaled extrapolates a sampled busy time to all calls.
func scaled(busy time.Duration, timed, calls int64) float64 {
	if timed == 0 {
		return 0
	}
	return busy.Seconds() * float64(calls) / float64(timed)
}

// tracedReduction counts the LMC-OPT projection and conflict calls.
type tracedReduction struct {
	inner         spec.Reduction
	interestCalls int64
	conflictCalls int64
	conflictTrue  int64
	timed         int64
	busy          time.Duration
}

// traceReduction wraps r, keeping spec.Keyer visible: without it the engine
// falls back from per-key grouping to per-state conflict checks.
func traceReduction(r spec.Reduction) (spec.Reduction, *tracedReduction) {
	tr := &tracedReduction{inner: r}
	if k, ok := r.(spec.Keyer); ok {
		return &tracedKeyedReduction{tracedReduction: tr, keyer: k}, tr
	}
	return tr, tr
}

func (t *tracedReduction) Interest(n model.NodeID, s model.State) (spec.Interest, bool) {
	t.interestCalls++
	return t.inner.Interest(n, s)
}

func (t *tracedReduction) Conflict(a, b spec.Interest) bool {
	t.conflictCalls++
	var hit bool
	if t.conflictCalls%sampleEvery != 0 {
		hit = t.inner.Conflict(a, b)
	} else {
		t0 := time.Now()
		hit = t.inner.Conflict(a, b)
		t.busy += since(t0)
		t.timed++
	}
	if hit {
		t.conflictTrue++
	}
	return hit
}

type tracedKeyedReduction struct {
	*tracedReduction
	keyer spec.Keyer
}

func (t *tracedKeyedReduction) InterestKey(i spec.Interest) string { return t.keyer.InterestKey(i) }

// tracedObserver counts every run event, turns the round boundaries into
// spans, and measures its own cost. The engine buffers a round's events and
// delivers them together at the barrier, so a round's extent comes from the
// Elapsed stamps the events carry, not from when they arrive.
type tracedObserver struct {
	tr     *tracer
	parent int
	check  int

	events   int64
	busy     time.Duration
	rounds   int64
	roundMax time.Duration
	degraded int64
	// origin is the engine's own time zero, fixed by the run-start event
	// (which is delivered at once); roundFrom the open round's start stamp.
	origin    time.Time
	roundFrom time.Duration
}

func (o *tracedObserver) OnEvent(e obs.Event) {
	t0 := time.Now()
	o.events++
	switch e.Kind {
	case obs.KindRunStart:
		o.origin = t0.Add(-e.Elapsed)
	case obs.KindRoundStart:
		o.roundFrom = e.Elapsed
	case obs.KindRoundEnd:
		o.rounds++
		if d := e.Elapsed - o.roundFrom; d > o.roundMax {
			o.roundMax = d
		}
		o.tr.add("core.round", o.parent, o.check, o.origin.Add(o.roundFrom), o.origin.Add(e.Elapsed))
	case obs.KindShardDegraded:
		o.degraded++
	}
	o.busy += time.Since(t0)
}

// tracedSpawner times worker spawns and meters the wire.
type tracedSpawner struct {
	inner  shard.Spawner
	tr     *tracer
	parent int
	check  int

	spawn time.Duration
	conns []*tracedConn
}

func (s *tracedSpawner) Spawn(idx, count int) (io.ReadWriteCloser, error) {
	id := s.tr.begin("shard.spawn", s.parent, s.check)
	t0 := time.Now()
	rwc, err := s.inner.Spawn(idx, count)
	s.spawn += time.Since(t0)
	s.tr.end(id)
	if err != nil {
		return nil, err
	}
	c := &tracedConn{inner: rwc}
	s.conns = append(s.conns, c)
	return c, nil
}

// tracedConn counts the coordinator's reads and writes on one worker link;
// time inside Read is time the coordinator waited for the worker.
type tracedConn struct {
	inner io.ReadWriteCloser

	reads, writes    int64
	rxBytes, txBytes int64
	readWait         time.Duration
}

func (c *tracedConn) Read(b []byte) (int, error) {
	t0 := time.Now()
	n, err := c.inner.Read(b)
	c.readWait += time.Since(t0)
	c.reads++
	c.rxBytes += int64(n)
	return n, err
}

func (c *tracedConn) Write(b []byte) (int, error) {
	n, err := c.inner.Write(b)
	c.writes++
	c.txBytes += int64(n)
	return n, err
}

func (c *tracedConn) Close() error { return c.inner.Close() }

// tracedSink times every checkpoint append.
type tracedSink struct {
	inner  core.CheckpointSink
	tr     *tracer
	parent int
	check  int

	calls   int64
	records int64
	busy    time.Duration
}

func (s *tracedSink) OnRoundCheckpoint(cp core.RoundCheckpoint) error {
	id := s.tr.begin("store.append", s.parent, s.check)
	t0 := time.Now()
	err := s.inner.OnRoundCheckpoint(cp)
	s.busy += time.Since(t0)
	s.tr.end(id)
	s.calls++
	s.records += int64(len(cp.Records))
	return err
}

// tracedResume counts the hint lookups of a resumed check.
type tracedResume struct {
	inner core.ResumeSource
	calls int64
	hits  int64
}

func (r *tracedResume) RoundHints(pass, round int) (core.RoundCheckpoint, bool) {
	cp, ok := r.inner.RoundHints(pass, round)
	r.calls++
	if ok {
		r.hits++
	}
	return cp, ok
}
