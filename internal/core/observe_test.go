package core

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"lmc/internal/model"
	"lmc/internal/obs"
	"lmc/internal/protocols/paxos"
	"lmc/internal/protocols/randtree"
	"lmc/internal/protocols/tree"
	"lmc/internal/protocols/twophase"
	"lmc/internal/spec"
)

// TestValidate covers the error-returning option check CheckContext runs.
func TestValidate(t *testing.T) {
	cases := []struct {
		name    string
		opt     Options
		wantErr bool
	}{
		{"no invariant at all", Options{}, true},
		{"system invariant", Options{Invariant: paxos.Agreement()}, false},
		{"local invariants only", Options{LocalInvariants: []spec.LocalInvariant{randtree.Structure()}}, false},
		{"pure exploration", Options{DisableSystemStates: true}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.opt.Validate()
			if (err != nil) != tc.wantErr {
				t.Fatalf("Validate() = %v, wantErr=%v", err, tc.wantErr)
			}
		})
	}
}

// TestCheckContextValidates: an invalid configuration surfaces as a returned
// error, never a run.
func TestCheckContextValidates(t *testing.T) {
	m, start := paxosSpace()
	res, err := CheckContext(context.Background(), m, start, Options{})
	if err == nil {
		t.Fatal("CheckContext accepted options without any invariant")
	}
	if res != nil {
		t.Fatal("CheckContext returned a result alongside the error")
	}
}

// TestCheckPanicsOnInvalidOptions: the plain entry point follows the same
// rule as global.Check and lmc.Check — what Validate rejects is a panic, not
// a run that checks nothing.
func TestCheckPanicsOnInvalidOptions(t *testing.T) {
	m, start := paxosSpace()
	defer func() {
		if recover() == nil {
			t.Fatal("Check ran options without any invariant")
		}
	}()
	Check(m, start, Options{})
}

// TestStopReasons: every way a run can end — each obs.StopReason, at
// Workers -1 and 4 — yields a well-formed partial result: the run names its
// own reason, only the fixpoint run is Complete, every reported bug replays,
// and an observer sees exactly one KindRunEnd, carrying the same reason.
func TestStopReasons(t *testing.T) {
	m, start := paxosSpace()
	agreement := Options{Invariant: paxos.Agreement()}
	with := func(set func(*Options)) Options {
		o := agreement
		set(&o)
		return o
	}
	// The two-proposal space's fixpoint is minutes away, so its run cannot
	// end inside the budget any other way.
	two := paxos.New(3, paxos.NoBug, paxos.EachOnce{Nodes: []model.NodeID{0, 1}, Index: 0})
	tp := twophase.New(4, twophase.MajorityBug, 2)
	// TestResumeDigestDivergence's lying source: a stored round whose digest
	// the re-run cannot reproduce.
	lying := newMemStore()
	Check(m, start, with(func(o *Options) { o.Checkpoint = lying }))
	cp, ok := lying.rounds[[2]int{1, 2}]
	if !ok {
		t.Fatal("round 2 was not checkpointed")
	}
	cp.Digest.States--
	lying.rounds[[2]int{1, 2}] = cp
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	cases := []struct {
		want  obs.StopReason
		m     model.Machine
		start model.SystemState
		opt   Options
		ctx   context.Context
	}{
		{StopFixpoint, m, start, agreement, context.Background()},
		{StopTransitions, m, start, with(func(o *Options) { o.MaxTransitions = 100 }), context.Background()},
		{StopBudget, two, model.InitialSystem(two), with(func(o *Options) { o.Budget = 50 * time.Millisecond }),
			context.Background()},
		{StopCancelled, m, start, agreement, cancelled},
		{StopFirstBug, tp, model.InitialSystem(tp), Options{Invariant: twophase.Atomicity(), StopAtFirstBug: true},
			context.Background()},
		{obs.StopResumeDiverged, m, start, with(func(o *Options) { o.Resume = lying }), context.Background()},
	}
	for _, tc := range cases {
		for _, workers := range []int{-1, 4} {
			t.Run(fmt.Sprintf("%v/workers=%d", tc.want, workers), func(t *testing.T) {
				rec := &obs.Recorder{}
				opt := tc.opt
				opt.Workers, opt.Observer, opt.HeartbeatEvery = workers, rec, -1
				res, err := CheckContext(tc.ctx, tc.m, tc.start, opt)
				if err != nil {
					t.Fatal(err)
				}
				if res.StopReason != tc.want || res.Complete != (tc.want == StopFixpoint) {
					t.Fatalf("reason=%v complete=%v: %s", res.StopReason, res.Complete, res.Stats.String())
				}
				assertBugsWellFormed(t, tc.m, tc.start, opt, res)
				var ends []obs.Event
				for _, e := range rec.Events() {
					if e.Kind == obs.KindRunEnd {
						ends = append(ends, e)
					}
				}
				if len(ends) != 1 || ends[0].Reason != res.StopReason {
					t.Fatalf("%d KindRunEnd events %v for a run that stopped with %v", len(ends), ends, res.StopReason)
				}
			})
		}
	}
}

// TestCancelledContext: a pre-cancelled context stops the run at the first
// round barrier with the partial result intact.
func TestCancelledContext(t *testing.T) {
	m, start := paxosSpace()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := CheckContext(ctx, m, start, Options{Invariant: paxos.Agreement()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete {
		t.Fatal("cancelled run claims completeness")
	}
	if res.StopReason != StopCancelled {
		t.Fatalf("reason=%v, want StopCancelled", res.StopReason)
	}
}

// cancelAtRound builds an observer hook that cancels the run's context when
// round `round` of pass 1 finishes.
func cancelAtRound(cancel context.CancelFunc, round int) obs.Observer {
	return obs.FuncObserver(func(e obs.Event) {
		if e.Kind == obs.KindRoundEnd && e.Pass == 1 && e.Round == round {
			cancel()
		}
	})
}

// TestCancelDeterminism: cancellation is polled at round barriers, after
// the observer flush, so a hook cancelling at a fixed round cuts the run
// off at the same point for every worker count — identical partial stats
// and bugs.
func TestCancelDeterminism(t *testing.T) {
	cases := []struct {
		name string
		m    model.Machine
		opt  Options
	}{
		{
			name: "paxos-gen",
			m:    paxos.New(3, paxos.NoBug, paxos.OnceAt{Node: 0, Index: 0, Value: 7}),
			opt:  Options{Invariant: paxos.Agreement()},
		},
		{
			name: "twophase-majority",
			m:    twophase.New(4, twophase.MajorityBug, 2),
			opt:  Options{Invariant: twophase.Atomicity()},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			start := model.InitialSystem(tc.m)
			run := func(workers, round int) *Result {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				o := tc.opt
				o.Workers = workers
				o.Observer = cancelAtRound(cancel, round)
				o.HeartbeatEvery = -1
				res, err := CheckContext(ctx, tc.m, start, o)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			for _, round := range []int{1, 2, 3} {
				base := run(1, round)
				if base.Complete {
					// The space ran out before the cancel round; still a
					// valid parity point but no cancellation to compare.
					continue
				}
				if base.StopReason != StopCancelled {
					t.Fatalf("round=%d: reason=%v, want StopCancelled", round, base.StopReason)
				}
				for _, w := range []int{4, 8} {
					got := run(w, round)
					if got.StopReason != StopCancelled {
						t.Fatalf("round=%d workers=%d: reason=%v", round, w, got.StopReason)
					}
					assertSameResult(t, w, base, got)
				}
			}
		})
	}
}

// TestWorkersParityWithObserver: an attached observer must not perturb the
// parallel engine — results stay bit-for-bit identical to the sequential
// nil-observer run, and the flushed event stream itself is identical for
// every worker count (heartbeats disabled; they are wall-clock gated).
func TestWorkersParityWithObserver(t *testing.T) {
	m := paxos.New(3, paxos.NoBug, paxos.OnceAt{Node: 0, Index: 0, Value: 7})
	start := model.InitialSystem(m)
	base := Check(m, start, Options{Invariant: paxos.Agreement(), Workers: -1})

	type runOut struct {
		res    *Result
		events []obs.Event
	}
	run := func(workers int) runOut {
		rec := &obs.Recorder{}
		res := Check(m, start, Options{
			Invariant:      paxos.Agreement(),
			Workers:        workers,
			Observer:       rec,
			HeartbeatEvery: -1,
		})
		return runOut{res: res, events: rec.Events()}
	}

	seq := run(1)
	assertSameResult(t, 1, base, seq.res)
	if len(seq.events) == 0 {
		t.Fatal("no events recorded")
	}
	for _, w := range []int{4, 8} {
		got := run(w)
		assertSameResult(t, w, base, got.res)
		if len(got.events) != len(seq.events) {
			t.Fatalf("workers=%d event count diverged: %d vs %d",
				w, len(got.events), len(seq.events))
		}
		for i := range seq.events {
			a, b := seq.events[i], got.events[i]
			// Elapsed and phase times are wall clock; everything else must
			// match exactly.
			if a.Kind != b.Kind || a.Pass != b.Pass || a.Round != b.Round ||
				a.Depth != b.Depth || a.Count != b.Count || a.Sequences != b.Sequences ||
				a.Invariant != b.Invariant || a.Detail != b.Detail || a.Reason != b.Reason {
				t.Fatalf("workers=%d event %d diverged:\nseq: %+v\ngot: %+v", w, i, a, b)
			}
		}
	}
}

// TestObserverSeesViolations: each confirmed bug is emitted exactly once.
func TestObserverSeesViolations(t *testing.T) {
	m := twophase.New(4, twophase.MajorityBug, 2)
	rec := &obs.Recorder{}
	res := Check(m, model.InitialSystem(m), Options{
		Invariant:      twophase.Atomicity(),
		Observer:       rec,
		HeartbeatEvery: -1,
	})
	if got := rec.Count(obs.KindViolation); got != len(res.Bugs) {
		t.Fatalf("%d violation events for %d bugs", got, len(res.Bugs))
	}
	if rec.Count(obs.KindRunStart) != 1 || rec.Count(obs.KindRunEnd) != 1 {
		t.Fatalf("run start/end not emitted exactly once: %d/%d",
			rec.Count(obs.KindRunStart), rec.Count(obs.KindRunEnd))
	}
}

// TestElapsedCoversTheWholeCall: the engine clock starts before the memory
// probe's baseline collection, so Stats.Elapsed (and with it every event time
// and the Budget deadline) accounts for all the time the caller waits. The
// ballast makes that collection take milliseconds; the best of a few tries
// keeps a descheduled test process from failing it.
func TestElapsedCoversTheWholeCall(t *testing.T) {
	ballast := make([]*[64]byte, 1<<18)
	for i := range ballast {
		ballast[i] = new([64]byte)
	}
	m := tree.NewPaperTree()
	opt := Options{Invariant: m.CausalityInvariant(), Workers: -1}
	best := time.Hour
	for try := 0; try < 5; try++ {
		t0 := time.Now()
		res := Check(m, model.InitialSystem(m), opt)
		if gap := time.Since(t0) - res.Stats.Elapsed; gap < best {
			best = gap
		}
	}
	runtime.KeepAlive(ballast)
	if best >= time.Millisecond {
		t.Fatalf("Check returned %v after Stats.Elapsed stopped counting", best)
	}
}
