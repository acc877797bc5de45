package store_test

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"testing"

	"lmc/internal/actordemo"
	"lmc/internal/core"
	"lmc/internal/model"
	"lmc/internal/obs"
	"lmc/internal/protocols/paxos"
	"lmc/internal/store"
)

// The kill-and-resume matrix is the store's load-bearing guarantee: SIGKILL
// the checking process at a round barrier — after the round's checkpoint
// write returned, the point an external kill of a busy daemon lands at —
// and a resume from the surviving file must produce a Result bit-for-bit
// identical to an uninterrupted run, across protocol families (a modeled
// protocol and a real implementation behind the actorcheck adapter) and
// kill depths. The child process is this test binary re-exec'd with env
// markers (the shard suite's idiom); it kills itself with SIGKILL from the
// observer callback that fires when round k's checkpoint event flushes, so
// the kill point is deterministic and genuinely mid-run.

const (
	envChild = "LMC_STORE_KILL_CHILD"
	envProto = "LMC_STORE_KILL_PROTO"
	envRound = "LMC_STORE_KILL_ROUND"
	envPath  = "LMC_STORE_KILL_PATH"

	// childCompleted is the child's exit code when the run finished before
	// reaching the kill round — a test-matrix bug, not a parity failure.
	childCompleted = 3
)

func TestMain(m *testing.M) {
	if os.Getenv(envChild) == "1" {
		runKillChild()
		// Unreachable on the kill path; reached only when the run finished
		// before the kill round.
		os.Exit(childCompleted)
	}
	os.Exit(m.Run())
}

// killCase rebuilds one matrix workload. Parent and child both call it, so
// baseline, victim and resumed runs explore the identical spec.
func killCase(proto string) (model.Machine, core.Options, error) {
	switch proto {
	case "paxos":
		m := paxos.New(3, paxos.NoBug, paxos.OnceAt{Node: 0, Index: 0, Value: 7})
		return m, core.Options{Invariant: paxos.Agreement()}, nil
	case "actor-2pc":
		ad := actordemo.NewAdapter(4, actordemo.MajorityBug, 2)
		return ad, core.Options{Invariant: actordemo.Atomicity(ad)}, nil
	}
	return nil, core.Options{}, fmt.Errorf("unknown kill-case proto %q", proto)
}

func runKillChild() {
	proto := os.Getenv(envProto)
	killRound, err := strconv.Atoi(os.Getenv(envRound))
	if err != nil {
		fmt.Fprintln(os.Stderr, "kill child: bad round:", err)
		os.Exit(1)
	}
	m, opt, err := killCase(proto)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kill child:", err)
		os.Exit(1)
	}
	st, err := store.Open(os.Getenv(envPath))
	if err != nil {
		fmt.Fprintln(os.Stderr, "kill child:", err)
		os.Exit(1)
	}
	if err := st.CreateRun("victim", proto, store.CodeHash(), store.OptionsSig(proto)); err != nil {
		fmt.Fprintln(os.Stderr, "kill child:", err)
		os.Exit(1)
	}
	opt.Checkpoint = st.Sink("victim")
	// The checkpoint event for round k flushes at the round-k barrier,
	// strictly after the sink write returned — so when it arrives, rounds
	// 1..k are in the file (page cache; survives process death) and
	// SIGKILLing here is the worst honest kill point.
	opt.Observer = obs.FuncObserver(func(e obs.Event) {
		if e.Kind == obs.KindCheckpoint && e.Detail == "" && e.Pass == 1 && e.Round == killRound {
			syscall.Kill(os.Getpid(), syscall.SIGKILL)
		}
	})
	core.Check(m, model.InitialSystem(m), opt)
}

func TestKillAndResumeParity(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs the test binary; skipped in -short")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, proto := range []string{"paxos", "actor-2pc"} {
		proto := proto
		t.Run(proto, func(t *testing.T) {
			m, opt, err := killCase(proto)
			if err != nil {
				t.Fatal(err)
			}
			start := model.InitialSystem(m)
			base := core.Check(m, start, opt)
			for _, killRound := range []int{1, 2, 3} {
				t.Run(fmt.Sprintf("round%d", killRound), func(t *testing.T) {
					path := filepath.Join(t.TempDir(), "ckpt.lmcstore")
					cmd := exec.Command(exe, "-test.run=^$")
					cmd.Env = append(os.Environ(),
						envChild+"=1",
						envProto+"="+proto,
						envRound+"="+strconv.Itoa(killRound),
						envPath+"="+path,
					)
					out, err := cmd.CombinedOutput()
					if err == nil {
						t.Fatalf("child survived its own SIGKILL:\n%s", out)
					}
					ee, ok := err.(*exec.ExitError)
					if !ok {
						t.Fatalf("child failed to run: %v\n%s", err, out)
					}
					if ee.ExitCode() == childCompleted {
						t.Fatalf("run finished before round %d; pick a shallower kill round", killRound)
					}
					if ws, ok := ee.Sys().(syscall.WaitStatus); ok &&
						(!ws.Signaled() || ws.Signal() != syscall.SIGKILL) {
						t.Fatalf("child died of %v, not SIGKILL:\n%s", err, out)
					}

					st, err := store.Open(path)
					if err != nil {
						t.Fatalf("reopen after kill: %v", err)
					}
					defer st.Close()
					meta, ok := st.Run("victim")
					if !ok {
						t.Fatal("victim run missing from surviving store")
					}
					if meta.Rounds != killRound {
						t.Fatalf("stored rounds=%d, want %d (kill fired at the round-%d barrier)",
							meta.Rounds, killRound, killRound)
					}
					if meta.CodeHash != store.CodeHash() {
						t.Fatalf("code hash drifted between child and parent of the same binary")
					}
					src := st.Resume("victim")
					if src == nil {
						t.Fatal("no resume source for the victim run")
					}

					ropt := opt
					ropt.Resume = src
					primed := 0
					ropt.Observer = obs.FuncObserver(func(e obs.Event) {
						if e.Kind == obs.KindResume && e.Detail == "" {
							primed++
						}
					})
					resumed := core.Check(m, start, ropt)
					if primed != killRound {
						t.Fatalf("resume primed %d rounds, want %d", primed, killRound)
					}
					assertBitForBit(t, base, resumed)
				})
			}
		})
	}
}

// assertBitForBit requires full Counters equality (not a curated subset)
// modulo the wall-clock duration fields, plus identical termination and
// bug details.
func assertBitForBit(t *testing.T, base, got *core.Result) {
	t.Helper()
	b, g := base.Stats, got.Stats
	b.Elapsed, g.Elapsed = 0, 0
	b.SoundnessTime, g.SoundnessTime = 0, 0
	b.SystemStateTime, g.SystemStateTime = 0, 0
	b.ShardWaitTime, g.ShardWaitTime = 0, 0
	if b != g {
		t.Fatalf("counters diverged:\nbase: %s\n got: %s", b.String(), g.String())
	}
	if base.Complete != got.Complete || base.StopReason != got.StopReason {
		t.Fatalf("termination diverged: base=(%v,%v) got=(%v,%v)",
			base.Complete, base.StopReason, got.Complete, got.StopReason)
	}
	if len(base.Bugs) != len(got.Bugs) {
		t.Fatalf("bug count diverged: base=%d got=%d", len(base.Bugs), len(got.Bugs))
	}
	for i := range base.Bugs {
		bb, gb := base.Bugs[i], got.Bugs[i]
		if bb.Violation.Invariant != gb.Violation.Invariant ||
			bb.Violation.Detail != gb.Violation.Detail ||
			bb.Depth != gb.Depth ||
			bb.System.Fingerprint() != gb.System.Fingerprint() ||
			len(bb.Schedule) != len(gb.Schedule) {
			t.Fatalf("bug %d diverged", i)
		}
	}
}
