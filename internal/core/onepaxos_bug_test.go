package core

import (
	"testing"
	"time"

	"lmc/internal/obs"
	"lmc/internal/protocols/onepaxos"
	"lmc/internal/stats"
	"lmc/internal/trace"
)

// TestOnePaxosBugFound reproduces §5.6: starting from the live state where
// N3 leads with acceptor N2 and all nodes but N1 chose value 3, the buggy
// variant lets N1 — still believing it is both leader and (due to the ++
// initialization bug) acceptor — decide value 1 alone.
func TestOnePaxosBugFound(t *testing.T) {
	m := onepaxos.New(3, onepaxos.PlusPlusBug, onepaxos.Driver{})
	live, err := onepaxos.PaperLiveState(m)
	if err != nil {
		t.Fatal(err)
	}

	res := Check(m, live, Options{
		Invariant:      onepaxos.Agreement(),
		Reduction:      onepaxos.Reduction{},
		StopAtFirstBug: true,
		Budget:         60 * time.Second,
	})
	if len(res.Bugs) == 0 {
		t.Fatalf("LMC did not find the ++ bug: %s", res.Stats.String())
	}
	bug := res.Bugs[0]
	t.Logf("bug: %v", bug.Violation)
	t.Logf("schedule:\n%s", bug.Schedule)
	t.Logf("stats: %s", res.Stats.String())

	rr := trace.Replay(m, live, bug.Schedule)
	if rr.Err != nil {
		t.Fatalf("witness schedule does not replay: %v", rr.Err)
	}
	if v := onepaxos.Agreement().Check(rr.Final); v == nil {
		t.Fatalf("replayed final state does not violate agreement")
	}

	// The correct variant must be clean from its own live state.
	correct := onepaxos.New(3, onepaxos.NoBug, onepaxos.Driver{})
	cleanLive, err := onepaxos.PaperLiveState(correct)
	if err != nil {
		t.Fatal(err)
	}
	clean := Check(correct, cleanLive, Options{
		Invariant: onepaxos.Agreement(),
		Reduction: onepaxos.Reduction{},
		Budget:    10 * time.Second,
	})
	if len(clean.Bugs) != 0 {
		t.Fatalf("correct 1Paxos reported a bug: %v\n%s",
			clean.Bugs[0].Violation, clean.Bugs[0].Schedule)
	}
}

// TestPhaseTimesPartitionTheRun: the sweep's timer spans the confirmations
// it hands to confirmBatch, which book the same interval as SoundnessTime.
// The two phases must not both claim it — otherwise their sum exceeds the
// run and obs.Attribution reports zero exploration (LMC-GEN on buggy 1Paxos
// confirms thousands of violations, so soundness dominates the run).
//
// Only a wall-clock budget ends this run — a transition cap does not bound
// GEN's confirmations here — and on a slow host one second may end it before
// it has swept and confirmed. The budget doubles, up to 8 s, until it has.
func TestPhaseTimesPartitionTheRun(t *testing.T) {
	m := onepaxos.New(3, onepaxos.PlusPlusBug, onepaxos.Driver{})
	live, err := onepaxos.PaperLiveState(m)
	if err != nil {
		t.Fatal(err)
	}
	var s stats.Counters
	for budget := time.Second; ; budget *= 2 {
		res := Check(m, live, Options{
			Invariant: onepaxos.Agreement(),
			Budget:    budget,
			Workers:   -1,
		})
		s = res.Stats
		t.Logf("budget %v: %s", budget, s.String())
		if s.SoundnessTime > 0 && s.SystemStateTime > 0 {
			break
		}
		if budget >= 8*time.Second {
			t.Fatalf("the run never swept or never confirmed within %v: %s", budget, s.String())
		}
	}
	if s.SystemStateTime+s.SoundnessTime > s.Elapsed {
		t.Fatalf("systemStateTime %v + soundnessTime %v exceed the run's %v",
			s.SystemStateTime, s.SoundnessTime, s.Elapsed)
	}
	if ph := obs.Attribution(&s, s.Elapsed); ph.Explore <= 0 {
		t.Fatalf("attribution leaves exploration no time: %+v", ph)
	}
}
