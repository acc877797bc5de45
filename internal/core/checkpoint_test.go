package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"lmc/internal/codec"
	"lmc/internal/model"
	"lmc/internal/obs"
	"lmc/internal/protocols/paxos"
	"lmc/internal/protocols/twophase"
)

// memStore is the in-memory CheckpointSink + ResumeSource the engine-level
// tests use: what internal/store does with a file, minus the file.
type memStore struct {
	rounds map[[2]int]RoundCheckpoint
	err    error // injected sink failure
}

func newMemStore() *memStore { return &memStore{rounds: make(map[[2]int]RoundCheckpoint)} }

func (s *memStore) OnRoundCheckpoint(cp RoundCheckpoint) error {
	if s.err != nil {
		return s.err
	}
	// Deep-copy the record slice: the engine hands live buffers.
	recs := make([]DeliveryRecord, len(cp.Records))
	copy(recs, cp.Records)
	cp.Records = recs
	s.rounds[[2]int{cp.Pass, cp.Round}] = cp
	return nil
}

func (s *memStore) RoundHints(pass, round int) (RoundCheckpoint, bool) {
	cp, ok := s.rounds[[2]int{pass, round}]
	return cp, ok
}

// truncated returns a copy holding only rounds <= k of pass 1, simulating a
// run killed at the k-th round barrier.
func (s *memStore) truncated(k int) *memStore {
	out := newMemStore()
	for key, cp := range s.rounds {
		if key[0] == 1 && key[1] <= k {
			out.rounds[key] = cp
		}
	}
	return out
}

// zeroWallClock clears the wall-clock duration fields, the only Counters
// fields resume parity excludes.
func zeroWallClock(c *Result) {
	c.Stats.Elapsed = 0
	c.Stats.SoundnessTime = 0
	c.Stats.SystemStateTime = 0
	c.Stats.ShardWaitTime = 0
	if c.Series != nil {
		c.Series = nil
	}
}

func assertBitForBit(t *testing.T, label string, base, got *Result) {
	t.Helper()
	zeroWallClock(base)
	zeroWallClock(got)
	if base.Stats != got.Stats {
		t.Fatalf("%s: counters diverged:\nbase: %s\ngot:  %s", label, base.Stats.String(), got.Stats.String())
	}
	if base.Complete != got.Complete || base.StopReason != got.StopReason ||
		base.Suppressed != got.Suppressed || base.FinalLocalBound != got.FinalLocalBound {
		t.Fatalf("%s: run outcome diverged: base=%+v got=%+v", label, base, got)
	}
	if len(base.Bugs) != len(got.Bugs) {
		t.Fatalf("%s: bug count diverged: base=%d got=%d", label, len(base.Bugs), len(got.Bugs))
	}
	for i := range base.Bugs {
		b, g := base.Bugs[i], got.Bugs[i]
		if b.Violation.Invariant != g.Violation.Invariant || b.Violation.Detail != g.Violation.Detail ||
			b.Depth != g.Depth || b.System.Fingerprint() != g.System.Fingerprint() ||
			len(b.Schedule) != len(g.Schedule) {
			t.Fatalf("%s: bug %d diverged", label, i)
		}
	}
}

// TestCheckpointParity: a checkpointed run's Result is bit-for-bit the
// plain run's, and a run resumed from any truncated checkpoint prefix
// (killed at round k) reproduces it too — including every deterministic
// counter.
func TestCheckpointParity(t *testing.T) {
	cases := []struct {
		name  string
		m     model.Machine
		opt   Options
		kills []int
	}{
		{
			name:  "paxos-gen",
			m:     paxos.New(3, paxos.NoBug, paxos.OnceAt{Node: 0, Index: 0, Value: 7}),
			opt:   Options{Invariant: paxos.Agreement()},
			kills: []int{1, 2, 3},
		},
		{
			name:  "twophase-bug",
			m:     twophase.New(3, twophase.MajorityBug),
			opt:   Options{Invariant: twophase.Atomicity()},
			kills: []int{1, 2, 3},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			start := model.InitialSystem(tc.m)
			base := Check(tc.m, start, tc.opt)

			st := newMemStore()
			opt := tc.opt
			opt.Checkpoint = st
			ck := Check(tc.m, start, opt)
			assertBitForBit(t, "checkpointed", base, ck)
			if len(st.rounds) == 0 {
				t.Fatal("no rounds checkpointed")
			}

			for _, k := range tc.kills {
				opt := tc.opt
				opt.Resume = st.truncated(k)
				res := Check(tc.m, start, opt)
				assertBitForBit(t, "resumed@"+string(rune('0'+k)), base, res)
			}

			// Full-store resume too: every round primed from records.
			opt = tc.opt
			opt.Resume = st
			res := Check(tc.m, start, opt)
			assertBitForBit(t, "resumed@full", base, res)
		})
	}
}

// TestCheckpointKillAtBarrier: an interrupted checkpointed run (cancelled
// at round k, like a killed daemon whose last durable segment is round k)
// resumed from what it managed to store matches the uninterrupted run.
func TestCheckpointKillAtBarrier(t *testing.T) {
	m := paxos.New(3, paxos.NoBug, paxos.OnceAt{Node: 0, Index: 0, Value: 7})
	start := model.InitialSystem(m)
	base := Check(m, start, Options{Invariant: paxos.Agreement()})

	for _, k := range []int{1, 2, 3} {
		st := newMemStore()
		ctx, cancel := context.WithCancel(context.Background())
		opt := Options{Invariant: paxos.Agreement(),
			Checkpoint: st, HeartbeatEvery: -1,
			Observer: obs.FuncObserver(func(e obs.Event) {
				if e.Kind == obs.KindRoundEnd && e.Round == k {
					cancel()
				}
			}),
		}
		partial, err := CheckContext(ctx, m, start, opt)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if partial.StopReason != obs.StopCancelled {
			t.Fatalf("kill@%d: expected cancellation, got %v", k, partial.StopReason)
		}
		if len(st.rounds) == 0 {
			t.Fatalf("kill@%d: nothing checkpointed before the kill", k)
		}
		// A cancelled-at-barrier round is complete and must be stored.
		if _, ok := st.rounds[[2]int{1, k}]; !ok {
			t.Fatalf("kill@%d: round %d missing from the store", k, k)
		}
		res := Check(m, start, Options{Invariant: paxos.Agreement(), Resume: st})
		assertBitForBit(t, "kill-resume", base, res)
	}
}

// TestResumeDigestDivergence: stored records that contradict the handlers
// (here: a successor fingerprint from a different round's reality) must stop
// the run with StopResumeDiverged instead of silently producing garbage.
func TestResumeDigestDivergence(t *testing.T) {
	m := paxos.New(3, paxos.NoBug, paxos.OnceAt{Node: 0, Index: 0, Value: 7})
	start := model.InitialSystem(m)

	st := newMemStore()
	Check(m, start, Options{Invariant: paxos.Agreement(), Checkpoint: st})

	// Corrupt round 2: claim a recorded delivery was rejected. The record
	// must be one whose successor the round actually discovered (a
	// duplicate successor would leave the digest unchanged), and whose
	// successor no other record of the round also produces — then the
	// primed walk trusts the lie, the round's state set comes out smaller,
	// and the post-round digest disagrees with the stored one.
	cp, ok := st.rounds[[2]int{1, 2}]
	if !ok || len(cp.Records) == 0 {
		t.Skip("round 2 carries no records in this space")
	}
	isNew := make(map[codec.Fingerprint]bool)
	for _, fps := range cp.NewStates {
		for _, fp := range fps {
			isNew[fp] = true
		}
	}
	succCount := make(map[codec.Fingerprint]int)
	for _, r := range cp.Records {
		if !r.Rejected {
			succCount[r.Succ]++
		}
	}
	recs := make([]DeliveryRecord, len(cp.Records))
	copy(recs, cp.Records)
	corrupted := false
	for i := range recs {
		if !recs[i].Rejected && isNew[recs[i].Succ] && succCount[recs[i].Succ] == 1 {
			recs[i].Rejected = true
			corrupted = true
			break
		}
	}
	if !corrupted {
		t.Skip("round 2 has no uniquely-producing record to corrupt")
	}
	cp.Records = recs
	st.rounds[[2]int{1, 2}] = cp

	assertResumeDiverges(t, m, start, st)
}

// assertResumeDiverges resumes the paxos space from a corrupted store and
// requires the run to stop, incomplete, with a detailed KindResume event.
func assertResumeDiverges(t *testing.T, m model.Machine, start model.SystemState, st *memStore) {
	t.Helper()
	var diverged bool
	res := Check(m, start, Options{Invariant: paxos.Agreement(),
		Resume: st, HeartbeatEvery: -1,
		Observer: obs.FuncObserver(func(e obs.Event) {
			if e.Kind == obs.KindResume && e.Detail != "" {
				diverged = true
			}
		}),
	})
	if res.StopReason != obs.StopResumeDiverged {
		t.Fatalf("corrupted checkpoint: StopReason=%v, want StopResumeDiverged", res.StopReason)
	}
	if res.Complete {
		t.Fatal("diverged run claims completeness")
	}
	if !diverged {
		t.Fatal("no KindResume divergence event emitted")
	}
}

// TestResumeLyingSuccessor: stored records that lie about a successor — the
// handler accepts, but lands somewhere else — must stop the resume exactly
// like records that lie about an emission. The walk's own execution is used
// either way, so the post-round digest still matches; only the contradicted
// hint gives the checkpoint away.
func TestResumeLyingSuccessor(t *testing.T) {
	m := paxos.New(3, paxos.NoBug, paxos.OnceAt{Node: 0, Index: 0, Value: 7})
	start := model.InitialSystem(m)

	st := newMemStore()
	Check(m, start, Options{Invariant: paxos.Agreement(), Checkpoint: st})

	cp := st.rounds[[2]int{1, 2}]
	recs := make([]DeliveryRecord, len(cp.Records))
	copy(recs, cp.Records)
	flipped := 0
	for i := range recs {
		if !recs[i].Rejected {
			recs[i].Succ ^= 1
			flipped++
		}
	}
	if flipped == 0 {
		t.Fatal("round 2 carries no accepted record to corrupt")
	}
	cp.Records = recs
	st.rounds[[2]int{1, 2}] = cp

	assertResumeDiverges(t, m, start, st)
}

// TestCheckpointSinkFailure: a sink error disables checkpointing, surfaces
// as a KindCheckpoint event with the error detail, and leaves the run's
// result untouched.
func TestCheckpointSinkFailure(t *testing.T) {
	m := paxos.New(3, paxos.NoBug, paxos.OnceAt{Node: 0, Index: 0, Value: 7})
	start := model.InitialSystem(m)
	base := Check(m, start, Options{Invariant: paxos.Agreement()})

	st := newMemStore()
	st.err = errors.New("disk full")
	var failures int
	res := Check(m, start, Options{Invariant: paxos.Agreement(),
		Checkpoint: st, HeartbeatEvery: -1,
		Observer: obs.FuncObserver(func(e obs.Event) {
			if e.Kind == obs.KindCheckpoint && e.Detail != "" {
				failures++
			}
		}),
	})
	if failures != 1 {
		t.Fatalf("sink failure events = %d, want exactly 1 (checkpointing disabled after the first)", failures)
	}
	assertBitForBit(t, "sink-failure", base, res)
}

// TestCheckpointWorkersParity: record capture lives on the parallel
// workers' buffers; a multi-worker checkpointed run must store the same
// canonical rounds a sequential one does.
func TestCheckpointWorkersParity(t *testing.T) {
	m := paxos.New(3, paxos.NoBug, paxos.OnceAt{Node: 0, Index: 0, Value: 7})
	start := model.InitialSystem(m)

	seq := newMemStore()
	Check(m, start, Options{Invariant: paxos.Agreement(), Workers: -1, Checkpoint: seq})
	par := newMemStore()
	Check(m, start, Options{Invariant: paxos.Agreement(), Workers: 4, Checkpoint: par})

	if len(seq.rounds) != len(par.rounds) {
		t.Fatalf("round counts diverged: seq=%d par=%d", len(seq.rounds), len(par.rounds))
	}
	for key, b := range seq.rounds {
		g, ok := par.rounds[key]
		if !ok {
			t.Fatalf("parallel store missing round %v", key)
		}
		if b.Digest != g.Digest || len(b.Records) != len(g.Records) {
			t.Fatalf("round %v diverged: digests %v vs %v, records %d vs %d",
				key, b.Digest, g.Digest, len(b.Records), len(g.Records))
		}
		for i := range b.Records {
			br, gr := b.Records[i], g.Records[i]
			if br.Entry != gr.Entry || br.Parent != gr.Parent || br.Rejected != gr.Rejected || br.Succ != gr.Succ {
				t.Fatalf("round %v record %d diverged: %+v vs %+v", key, i, br, gr)
			}
		}
		// The stored counter snapshots agree on the deterministic fields.
		bc, gc := b.Counters, g.Counters
		bc.Elapsed, gc.Elapsed = 0, 0
		bc.SoundnessTime, gc.SoundnessTime = 0, 0
		bc.SystemStateTime, gc.SystemStateTime = 0, 0
		bc.ShardWaitTime, gc.ShardWaitTime = 0, 0
		if bc != gc {
			t.Fatalf("round %v counter snapshots diverged", key)
		}
	}
}

// TestCheckpointOverheadSmoke keeps the checkpoint path from regressing
// catastrophically in unit tests (the measured cost is the repo benchmark's
// serve-resume workload): a checkpointed run must finish within 3x of a
// plain one on the small test space, a bar generous enough for CI noise.
func TestCheckpointOverheadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("timing smoke")
	}
	m := paxos.New(3, paxos.NoBug, paxos.OnceAt{Node: 0, Index: 0, Value: 7})
	start := model.InitialSystem(m)
	opt := Options{Invariant: paxos.Agreement()}

	best := func(o Options) time.Duration {
		min := time.Duration(1<<62 - 1)
		for i := 0; i < 3; i++ {
			res := Check(m, start, o)
			if res.Stats.Elapsed < min {
				min = res.Stats.Elapsed
			}
		}
		return min
	}
	plain := best(opt)
	opt.Checkpoint = newMemStore()
	ck := best(opt)
	if plain > 10*time.Millisecond && ck > 3*plain {
		t.Fatalf("checkpointed run %v vs plain %v exceeds 3x smoke bar", ck, plain)
	}
}
