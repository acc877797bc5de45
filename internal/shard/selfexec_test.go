package shard_test

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"testing"

	"lmc/internal/core"
	"lmc/internal/obs"
	"lmc/internal/shard"
)

// TestSelfExecParity runs the real multi-process path: the test binary
// re-executes itself as shard workers (TestMain's env marker routes the
// children into RunWorker on stdin/stdout), so the wire protocol crosses
// actual process boundaries and OS pipes. The batch sweep proves the digest
// cadence is invisible to results on the real transport too.
func TestSelfExecParity(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping process-spawning test")
	}
	m, start, opt := benchCase(t, "paxos")
	base := core.Check(m, start, opt)

	for _, batch := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			var rounds, degraded int
			var detail string
			runOpt := opt
			runOpt.Observer = obs.FuncObserver(func(e obs.Event) {
				switch e.Kind {
				case obs.KindShardRound:
					rounds++
				case obs.KindShardDegraded:
					degraded++
					detail = e.Detail
				}
			})
			res, err := shard.Check(context.Background(), m, start, runOpt, shard.Config{
				Shards:  2,
				Spawner: shard.SelfExec{Env: []string{"LMC_SHARD_WORKER=1"}},
				Spec:    benchSpec("paxos"),
				Batch:   batch,
			})
			if err != nil {
				t.Fatal(err)
			}
			if degraded != 0 {
				t.Fatalf("degraded %d times (last: %s)", degraded, detail)
			}
			if rounds == 0 {
				t.Fatal("no shard record exchanges observed")
			}
			assertSameResult(t, 2, base, res)
		})
	}
}

// TestSelfExecKillWorker exercises degradation across real processes: the
// child workers exit after round 2 (env hook), the coordinator sees EOF
// while fetching records, and the run finishes in-process bit-for-bit.
func TestSelfExecKillWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping process-spawning test")
	}
	m, start, opt := benchCase(t, "paxos")
	base := core.Check(m, start, opt)

	var degraded int
	opt.Observer = obs.FuncObserver(func(e obs.Event) {
		if e.Kind == obs.KindShardDegraded {
			degraded++
		}
	})
	res, err := shard.Check(context.Background(), m, start, opt, shard.Config{
		Shards: 2,
		Spawner: shard.SelfExec{Env: []string{
			"LMC_SHARD_WORKER=1",
			"LMC_SHARD_DIE_AFTER_ROUND=2",
		}},
		Spec: benchSpec("paxos"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if degraded == 0 {
		t.Fatal("worker death did not surface as a degradation event")
	}
	if !res.Complete {
		t.Fatal("degraded run lost completeness")
	}
	assertSameResult(t, 2, base, res)
}

// openFDCount counts this process's open file descriptors via /proc.
func openFDCount(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatalf("reading /proc/self/fd: %v", err)
	}
	return len(ents)
}

// TestSelfExecSpawnFailureLeaksNoFDs: a spawn that fails after creating its
// pipes must close them. Each SelfExec.Spawn creates two pipe pairs before
// exec; without the error-path closes, every failed spawn would leak
// descriptors, and a coordinator retrying across runs would exhaust the
// process limit.
func TestSelfExecSpawnFailureLeaksNoFDs(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("relies on /proc/self/fd")
	}
	s := shard.SelfExec{Exe: "/nonexistent/lmc-worker-binary"}
	// One warm-up failure so lazily-created runtime descriptors settle.
	if _, err := s.Spawn(1, 2); err == nil {
		t.Fatal("spawn of a nonexistent binary succeeded")
	}
	before := openFDCount(t)
	for i := 0; i < 20; i++ {
		if _, err := s.Spawn(1, 2); err == nil {
			t.Fatal("spawn of a nonexistent binary succeeded")
		}
	}
	if after := openFDCount(t); after > before {
		t.Fatalf("failed spawns leaked descriptors: %d before, %d after", before, after)
	}
}
