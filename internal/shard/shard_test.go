package shard_test

import (
	"context"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"lmc/internal/bench"
	"lmc/internal/core"
	"lmc/internal/model"
	"lmc/internal/obs"
	"lmc/internal/protocols/tree"
	"lmc/internal/shard"
)

// TestMain doubles as the worker entry point for the SelfExec tests: the
// re-exec'd test binary sees the env marker and serves the shard protocol
// on stdin/stdout instead of running the test suite.
func TestMain(m *testing.M) {
	if os.Getenv("LMC_SHARD_WORKER") == "1" {
		if err := shard.RunWorker(testResolver()); err != nil {
			fmt.Fprintln(os.Stderr, "shard worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// benchSpec names a registry workload in the tests' spec space:
// "bench:<name>" resolves through bench.Lookup.
func benchSpec(name string) string { return benchPrefix + name }

const benchPrefix = "bench:"

// testResolver resolves the bench registry plus the one test-only spec with
// seeded in-flight messages.
func testResolver() shard.Resolver {
	return func(spec string) (shard.Workload, error) {
		if spec == "test:tree-inflight" {
			m := tree.NewPaperTree()
			return shard.Workload{
				Machine: m,
				Start:   model.InitialSystem(m),
				InitialMessages: []model.Message{
					tree.Forward{From: 0, To: 1},
					tree.Forward{From: 0, To: 2},
				},
			}, nil
		}
		name, ok := strings.CutPrefix(spec, benchPrefix)
		if !ok {
			return shard.Workload{}, fmt.Errorf("test resolver: unknown spec %q", spec)
		}
		w, err := bench.Lookup(name)
		if err != nil {
			return shard.Workload{}, err
		}
		start, err := w.StartState()
		if err != nil {
			return shard.Workload{}, err
		}
		return shard.Workload{Machine: w.Machine, Start: start}, nil
	}
}

// benchCase rebuilds a registry workload on the coordinator side, exactly
// as the worker resolver will: same constructor path, fresh machine
// instance — parity across separate instances is part of what the test
// proves.
func benchCase(t *testing.T, name string) (model.Machine, model.SystemState, core.Options) {
	t.Helper()
	w, err := bench.Lookup(name)
	if err != nil {
		t.Fatalf("lookup %q: %v", name, err)
	}
	start, err := w.StartState()
	if err != nil {
		t.Fatalf("start state %q: %v", name, err)
	}
	return w.Machine, start, core.Options{
		Invariant:       w.Invariant,
		LocalInvariants: w.Locals,
	}
}

// shardedRun checks a workload through a PipeSpawner fleet and asserts the
// sharded path actually engaged: no degradation, and at least one
// per-shard record exchange observed. cfg.Spawner is filled in here.
func shardedRun(t *testing.T, m model.Machine, start model.SystemState,
	opt core.Options, cfg shard.Config) *core.Result {
	t.Helper()
	var rounds, degraded int
	var lastDegrade string
	opt.Observer = obs.FuncObserver(func(e obs.Event) {
		switch e.Kind {
		case obs.KindShardRound:
			rounds++
		case obs.KindShardDegraded:
			degraded++
			lastDegrade = e.Detail
		}
	})
	cfg.Spawner = shard.PipeSpawner{Resolve: testResolver()}
	res, err := shard.Check(context.Background(), m, start, opt, cfg)
	if err != nil {
		t.Fatalf("shards=%d: %v", cfg.Shards, err)
	}
	if cfg.Shards > 1 {
		if degraded != 0 {
			t.Fatalf("shards=%d: degraded %d times (last: %s)", cfg.Shards, degraded, lastDegrade)
		}
		if rounds == 0 {
			t.Fatalf("shards=%d: no shard record exchanges observed", cfg.Shards)
		}
	}
	return res
}

// TestShardsParity is the tentpole gate: for every protocol family — the
// six bench protocols plus the actorcheck 2PC adapter — a sharded run is
// bit-for-bit identical to the sequential checker, for generative and
// reduction-backed configurations, with and without the fingerprint-layer
// reductions, and under a transition cap (which every replica hits at the
// same canonical transition). shards counts total processes: 1 covers the
// no-fleet path, 2 is coordinator + one worker, 4 is coordinator + three.
func TestShardsParity(t *testing.T) {
	type tcase struct {
		name   string
		spec   string
		bench  string // registry name; "" means the spec is test-local
		shards []int
		mutate func(*core.Options)
		// composed also attaches a checkpoint sink to the sharded run and
		// then resumes the stored log in-process: fleet, sink and resume
		// are clients of one round log and must compose bit-for-bit.
		composed bool
	}
	cases := []tcase{
		{name: "paxos-gen", bench: "paxos", shards: []int{1, 2, 4}},
		{name: "paxos-opt", bench: "paxos", shards: []int{2, 4},
			mutate: func(o *core.Options) {
				w, _ := bench.Lookup("paxos")
				o.Reduction = w.Reduction
			}},
		{name: "paxos-gen-reduced", bench: "paxos", shards: []int{2},
			mutate: func(o *core.Options) {
				o.Reduce = core.Reductions{Symmetry: true}
			}},
		{name: "paxos-gen-capped", bench: "paxos", shards: []int{2},
			mutate: func(o *core.Options) { o.MaxTransitions = 500 }},
		{name: "onepaxos-capped", bench: "1paxos", shards: []int{2},
			// The full single-decree space is far too large for a unit
			// test; a transition cap keeps it bounded while still proving
			// parity for the protocol (the cap cuts in canonical charge
			// order, which the sharded walk must reproduce exactly).
			mutate: func(o *core.Options) { o.MaxTransitions = 1000 }},
		{name: "tree-inflight", spec: "test:tree-inflight", shards: []int{2}},
		{name: "chain", bench: "chain", shards: []int{2}},
		{name: "randtree", bench: "randtree", shards: []int{2}},
		{name: "twophase-bug", bench: "twophase-bug", shards: []int{2, 4}},
		{name: "twophase-bug-reduced", bench: "twophase-bug", shards: []int{2},
			mutate: func(o *core.Options) {
				o.Reduce = core.Reductions{Symmetry: true}
			}},
		{name: "actor-2pc-bug", bench: "actor-2pc-bug", shards: []int{2}},
		{name: "paxos-gen-checkpointed-resumed", bench: "paxos", shards: []int{2}, composed: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var m model.Machine
			var start model.SystemState
			var opt core.Options
			spec := tc.spec
			if tc.bench != "" {
				m, start, opt = benchCase(t, tc.bench)
				spec = benchSpec(tc.bench)
			} else {
				wl, err := testResolver()(tc.spec)
				if err != nil {
					t.Fatal(err)
				}
				m, start = wl.Machine, wl.Start
				treeM := m.(*tree.Machine)
				opt = core.Options{
					Invariant:       treeM.CausalityInvariant(),
					InitialMessages: wl.InitialMessages,
				}
			}
			if tc.mutate != nil {
				tc.mutate(&opt)
			}
			base := core.Check(m, start, opt)
			for _, shards := range tc.shards {
				runOpt := opt
				log := memLog{}
				if tc.composed {
					runOpt.Checkpoint = log
				}
				got := shardedRun(t, m, start, runOpt, shard.Config{Shards: shards, Spec: spec})
				assertSameResult(t, shards, base, got)
				if !tc.composed {
					continue
				}
				if len(log) == 0 {
					t.Fatal("sharded run stored no rounds")
				}
				primed := 0
				resOpt := opt
				resOpt.Resume = log
				resOpt.Observer = obs.FuncObserver(func(e obs.Event) {
					if e.Kind == obs.KindResume && e.Detail == "" {
						primed++
					}
				})
				assertSameResult(t, shards, base, core.Check(m, start, resOpt))
				if primed != len(log) {
					t.Fatalf("resume primed %d rounds of %d stored", primed, len(log))
				}
			}
		})
	}
}

// memLog is an in-memory CheckpointSink and ResumeSource keyed by
// (pass, round).
type memLog map[[2]int]core.RoundCheckpoint

func (l memLog) OnRoundCheckpoint(cp core.RoundCheckpoint) error {
	l[[2]int{cp.Pass, cp.Round}] = cp
	return nil
}

func (l memLog) RoundHints(pass, round int) (core.RoundCheckpoint, bool) {
	cp, ok := l[[2]int{pass, round}]
	return cp, ok
}

// TestShardsBatchAndActionRecordParity sweeps the one protocol knob left,
// the digest batch window, with the workers capturing action records as
// they always do. Every window must reproduce the sequential run
// bit-for-bit — records are hints, and digests only detect divergence, so
// the cadence may not influence the walk.
func TestShardsBatchAndActionRecordParity(t *testing.T) {
	m, start, opt := benchCase(t, "paxos")
	base := core.Check(m, start, opt)
	for _, batch := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("batch=%d,acts=true", batch), func(t *testing.T) {
			got := shardedRun(t, m, start, opt, shard.Config{
				Shards: 2,
				Spec:   benchSpec("paxos"),
				Batch:  batch,
			})
			assertSameResult(t, 2, base, got)
		})
	}
}

// TestKillWorkerDegrades: a worker dying mid-run must degrade the run to
// in-process exploration — observed via the typed event — while the result
// stays bit-for-bit identical to sequential, including Complete.
func TestKillWorkerDegrades(t *testing.T) {
	m, start, opt := benchCase(t, "paxos")
	base := core.Check(m, start, opt)

	var degraded int
	var detail string
	opt.Observer = obs.FuncObserver(func(e obs.Event) {
		if e.Kind == obs.KindShardDegraded {
			degraded++
			detail = e.Detail
		}
	})
	res, err := shard.Check(context.Background(), m, start, opt, shard.Config{
		Shards:  2,
		Spawner: shard.PipeSpawner{Resolve: testResolver(), DieAfterRound: 2},
		Spec:    benchSpec("paxos"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if degraded == 0 {
		t.Fatal("worker death did not surface as a degradation event")
	}
	t.Logf("degraded: %s", detail)
	if !res.Complete {
		t.Fatal("degraded run lost completeness despite finishing in-process")
	}
	assertSameResult(t, 2, base, res)
}

// TestDialFailureFallsBack: a spawner that cannot produce workers must fall
// back to the in-process checker (with the degradation event), not fail.
func TestDialFailureFallsBack(t *testing.T) {
	m, start, opt := benchCase(t, "paxos")
	base := core.Check(m, start, opt)

	var degraded int
	opt.Observer = obs.FuncObserver(func(e obs.Event) {
		if e.Kind == obs.KindShardDegraded {
			degraded++
		}
	})
	res, err := shard.Check(context.Background(), m, start, opt, shard.Config{
		Shards:  2,
		Spawner: failSpawner{},
		Spec:    benchSpec("paxos"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if degraded != 1 {
		t.Fatalf("want exactly one degradation event, got %d", degraded)
	}
	assertSameResult(t, 2, base, res)
}

type failSpawner struct{}

func (failSpawner) Spawn(idx, count int) (io.ReadWriteCloser, error) {
	return nil, fmt.Errorf("no workers here")
}

// slowSpawner delays every Spawn, and every Close of a conn it spawned, by
// delay: a fleet whose bring-up and teardown take long enough to measure.
type slowSpawner struct {
	inner shard.Spawner
	delay time.Duration
}

func (s slowSpawner) Spawn(idx, count int) (io.ReadWriteCloser, error) {
	time.Sleep(s.delay)
	rwc, err := s.inner.Spawn(idx, count)
	if err != nil {
		return nil, err
	}
	return slowCloser{rwc, s.delay}, nil
}

type slowCloser struct {
	io.ReadWriteCloser
	delay time.Duration
}

func (c slowCloser) Close() error {
	time.Sleep(c.delay)
	return c.ReadWriteCloser.Close()
}

// TestFleetDialAndTeardownOnTheEngineClock: spawning and handshaking the
// fleet and tearing it down are part of the engine call, so Stats.Elapsed
// covers them — the call timed from outside exceeds it by less than 10 ms
// though each of the two takes 50 ms — and ShardWaitTime books them. A
// fleet that cannot be spawned still degrades with exactly one event to the
// in-process result.
func TestFleetDialAndTeardownOnTheEngineClock(t *testing.T) {
	const delay = 50 * time.Millisecond
	m, start, opt := benchCase(t, "paxos")
	base := core.Check(m, start, opt)

	for _, tc := range []struct {
		name  string
		inner shard.Spawner
	}{
		{"fleet", shard.PipeSpawner{Resolve: testResolver()}},
		{"no fleet", failSpawner{}},
	} {
		degraded := 0
		opt.Observer = obs.FuncObserver(func(e obs.Event) {
			if e.Kind == obs.KindShardDegraded {
				degraded++
			}
		})
		t0 := time.Now()
		res, err := shard.Check(context.Background(), m, start, opt, shard.Config{
			Shards:  2,
			Spawner: slowSpawner{tc.inner, delay},
			Spec:    benchSpec("paxos"),
		})
		outside := time.Since(t0)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		s := res.Stats
		t.Logf("%s: call %v, Elapsed %v, ShardWaitTime %v", tc.name, outside, s.Elapsed, s.ShardWaitTime)
		if gap := outside - s.Elapsed; gap >= 10*time.Millisecond {
			t.Errorf("%s: the call took %v outside the engine clock", tc.name, gap)
		}
		wantDegraded, minWait := 0, 2*delay
		if tc.name == "no fleet" {
			wantDegraded, minWait = 1, delay
		}
		if s.ShardWaitTime < minWait {
			t.Errorf("%s: ShardWaitTime %v, want at least %v", tc.name, s.ShardWaitTime, minWait)
		}
		if degraded != wantDegraded {
			t.Errorf("%s: %d degradation events, want %d", tc.name, degraded, wantDegraded)
		}
		assertSameResult(t, 2, base, res)
	}
}

// TestBadSpecDegrades: a worker that cannot resolve the spec refuses the
// handshake with a typed ERROR frame; the coordinator falls back.
func TestBadSpecDegrades(t *testing.T) {
	m, start, opt := benchCase(t, "paxos")
	var degraded int
	var detail string
	opt.Observer = obs.FuncObserver(func(e obs.Event) {
		if e.Kind == obs.KindShardDegraded {
			degraded++
			detail = e.Detail
		}
	})
	res, err := shard.Check(context.Background(), m, start, opt, shard.Config{
		Shards:  2,
		Spawner: shard.PipeSpawner{Resolve: testResolver()},
		Spec:    "bench:no-such-workload",
	})
	if err != nil {
		t.Fatal(err)
	}
	if degraded != 1 {
		t.Fatalf("want exactly one degradation event, got %d (detail %q)", degraded, detail)
	}
	if !res.Complete {
		t.Fatal("fallback run incomplete")
	}
}

// assertSameResult mirrors the core worker-parity harness: every
// deterministic counter and the confirmed bug list must match exactly.
func assertSameResult(t *testing.T, shards int, base, got *core.Result) {
	t.Helper()
	b, g := base.Stats, got.Stats
	if b.SystemStates != g.SystemStates ||
		b.InvariantChecks != g.InvariantChecks ||
		b.NodeStates != g.NodeStates ||
		b.Transitions != g.Transitions ||
		b.PreliminaryViolations != g.PreliminaryViolations ||
		b.SoundnessCalls != g.SoundnessCalls ||
		b.SequencesChecked != g.SequencesChecked ||
		b.ConfirmedBugs != g.ConfirmedBugs ||
		b.DuplicatesDropped != g.DuplicatesDropped ||
		b.SymmetrySkips != g.SymmetrySkips ||
		b.OrbitChecks != g.OrbitChecks {
		t.Fatalf("shards=%d diverged from sequential:\nseq: %s\ngot: %s",
			shards, b.String(), g.String())
	}
	if base.Complete != got.Complete {
		t.Fatalf("shards=%d completeness diverged: seq=%v got=%v",
			shards, base.Complete, got.Complete)
	}
	if len(base.Bugs) != len(got.Bugs) {
		t.Fatalf("shards=%d bug count diverged: seq=%d got=%d",
			shards, len(base.Bugs), len(got.Bugs))
	}
	for i := range base.Bugs {
		bb, gb := base.Bugs[i], got.Bugs[i]
		if bb.Violation.Invariant != gb.Violation.Invariant ||
			bb.Violation.Detail != gb.Violation.Detail {
			t.Fatalf("shards=%d bug %d violation diverged", shards, i)
		}
		if bb.Depth != gb.Depth {
			t.Fatalf("shards=%d bug %d depth diverged: seq=%d got=%d",
				shards, i, bb.Depth, gb.Depth)
		}
		if bb.System.Fingerprint() != gb.System.Fingerprint() {
			t.Fatalf("shards=%d bug %d system state diverged", shards, i)
		}
		if len(bb.Schedule) != len(gb.Schedule) {
			t.Fatalf("shards=%d bug %d schedule length diverged: seq=%d got=%d",
				shards, i, len(bb.Schedule), len(gb.Schedule))
		}
	}
}
