package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
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

			// Full-store resume too: every round verified against its digest.
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

// TestResumeDigestDivergence: the digest is the value a checkpoint stores to
// detect a fault (changed handlers, changed options, a corrupted store), and
// every one of its four fields is held: a resumed run whose post-round digest
// differs from the stored one in any of them stops with StopResumeDiverged
// instead of vouching for a run it is not.
func TestResumeDigestDivergence(t *testing.T) {
	m := paxos.New(3, paxos.NoBug, paxos.OnceAt{Node: 0, Index: 0, Value: 7})
	start := model.InitialSystem(m)

	st := newMemStore()
	Check(m, start, Options{Invariant: paxos.Agreement(), Checkpoint: st})
	good, ok := st.rounds[[2]int{1, 2}]
	if !ok {
		t.Fatal("round 2 was not checkpointed")
	}

	fields := []struct {
		name    string
		corrupt func(*ShardDigest)
	}{
		{"NetLen", func(d *ShardDigest) { d.NetLen++ }},
		{"Net", func(d *ShardDigest) { d.Net ^= 1 }},
		{"States", func(d *ShardDigest) { d.States-- }},
		{"Spaces", func(d *ShardDigest) { d.Spaces ^= 1 }},
	}
	for _, f := range fields {
		t.Run(f.name, func(t *testing.T) {
			cp := good // each field alone: the others stay as stored
			f.corrupt(&cp.Digest)
			st.rounds[[2]int{1, 2}] = cp
			assertResumeDiverges(t, m, start, st)
		})
	}
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

// countingMachine counts handler executions; the counter is atomic because
// exploration workers call handlers concurrently.
type countingMachine struct {
	model.Machine
	calls *atomic.Int64
}

func (m countingMachine) HandleMessage(n model.NodeID, s model.State, msg model.Message) (model.State, []model.Message) {
	m.calls.Add(1)
	return m.Machine.HandleMessage(n, s, msg)
}

func (m countingMachine) HandleAction(n model.NodeID, s model.State, a model.Action) (model.State, []model.Message) {
	m.calls.Add(1)
	return m.Machine.HandleAction(n, s, a)
}

// lyingRecords returns a corrupted delivery record for every delivery that
// discovers a state in the given run — the records checkpoints used to carry,
// rebuilt from the creation edges of one explored pass. Every record is keyed
// like the real step, so a walk that consulted stored records would find it:
// even ones claim the handler rejected, odd ones name a wrong successor and
// drop the emissions.
func lyingRecords(m model.Machine, start model.SystemState, opt Options) []DeliveryRecord {
	c := newChecker(context.Background(), m, start, opt)
	c.pass()
	entryOf := make(map[codec.Fingerprint]int)
	ep := c.net.Epoch()
	for i := 0; i < ep.Len(); i++ {
		entryOf[ep.Entry(i).FP] = i
	}
	var recs []DeliveryRecord
	for _, sp := range c.spaces {
		for _, ns := range sp.states {
			if len(ns.preds) == 0 || ns.preds[0].kind != model.NetworkEvent {
				continue
			}
			edge := &ns.preds[0]
			recs = append(recs, DeliveryRecord{Entry: entryOf[edge.msgFP], Parent: sp.states[edge.prev].fp,
				Rejected: len(recs)%2 == 0, Succ: ns.fp ^ 1})
		}
	}
	return recs
}

// TestResumeReadsOnlyTheDigest: resume is a verified re-run. A fresh run, a
// checkpointed run and a run resumed from the complete store execute the same
// number of handlers — a stored round spares none — and a store whose rounds
// all carry lying records (and bogus new-state segments) beside intact
// digests resumes bit-for-bit with no divergence event: nothing stored but
// the digest is read, so nothing else stored can cost the run a state.
func TestResumeReadsOnlyTheDigest(t *testing.T) {
	cases := []struct {
		name string
		m    model.Machine
		opt  Options
	}{
		{"paxos-gen", paxos.New(3, paxos.NoBug, paxos.OnceAt{Node: 0, Index: 0, Value: 7}),
			Options{Invariant: paxos.Agreement()}},
		{"twophase-bug", twophase.New(3, twophase.MajorityBug),
			Options{Invariant: twophase.Atomicity()}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var calls atomic.Int64
			m := countingMachine{tc.m, &calls}
			start := model.InitialSystem(m)
			count := func(opt Options) (*Result, int64) {
				calls.Store(0)
				res := Check(m, start, opt)
				return res, calls.Load()
			}

			fresh, freshCalls := count(tc.opt)
			if freshCalls == 0 {
				t.Fatal("the counting machine saw no handler execution")
			}

			st := newMemStore()
			opt := tc.opt
			opt.Checkpoint = st
			ck, ckCalls := count(opt)
			assertBitForBit(t, "checkpointed", fresh, ck)
			for key, cp := range st.rounds {
				if len(cp.Records) != 0 || len(cp.NewStates) != 0 {
					t.Fatalf("round %v: checkpoint carries %d records and %d new-state segments, want none",
						key, len(cp.Records), len(cp.NewStates))
				}
			}

			lies := lyingRecords(tc.m, start, tc.opt)
			if len(lies) < 2 {
				t.Fatalf("only %d discovering deliveries to lie about", len(lies))
			}
			for key, cp := range st.rounds {
				cp.Records = lies
				cp.NewStates = [][]codec.Fingerprint{{1}, {2}}
				st.rounds[key] = cp
			}
			verified, diverged := 0, 0
			opt = tc.opt
			opt.Resume, opt.HeartbeatEvery = st, -1
			opt.Observer = obs.FuncObserver(func(e obs.Event) {
				switch want := st.rounds[[2]int{e.Pass, e.Round}].Digest.States; {
				case e.Kind != obs.KindResume:
				case e.Detail != "":
					diverged++
				case e.Count != want || !strings.Contains(e.String(), fmt.Sprintf(" states=%d", want)):
					t.Errorf("resume event %q carries states=%d, want the stored digest's %d", e, e.Count, want)
				default:
					verified++
				}
			})
			res, resCalls := count(opt)
			assertBitForBit(t, "resumed from lying records", fresh, res)
			if diverged != 0 || verified != len(st.rounds) {
				t.Fatalf("resume verified %d of %d stored rounds with %d divergence events",
					verified, len(st.rounds), diverged)
			}
			if ckCalls != freshCalls || resCalls != freshCalls {
				t.Fatalf("handler executions: fresh %d, checkpointed %d, resumed %d — want all equal",
					freshCalls, ckCalls, resCalls)
			}
		})
	}
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

// TestCheckpointWorkersParity: a multi-worker checkpointed run must store
// the same canonical rounds — digest and counter snapshot — a sequential one
// does.
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
		if b.Digest != g.Digest || b.LocalBound != g.LocalBound {
			t.Fatalf("round %v diverged: digests %v vs %v, bounds %d vs %d",
				key, b.Digest, g.Digest, b.LocalBound, g.LocalBound)
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
