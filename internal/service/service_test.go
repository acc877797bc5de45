package service_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"lmc/internal/bench"
	"lmc/internal/core"
	"lmc/internal/model"
	"lmc/internal/obs"
	"lmc/internal/service"
	"lmc/internal/store"
)

func openStore(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.Open(filepath.Join(t.TempDir(), "svc.lmcstore"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// startService runs the job loop until the test ends.
func startService(t *testing.T, cfg service.Config) *service.Service {
	t.Helper()
	s := service.New(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go s.Run(ctx)
	return s
}

// waitJob polls until the job leaves the queued/running states.
func waitJob(t *testing.T, s *service.Service, id string) service.JobStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		st, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if st.State != service.StateQueued && st.State != service.StateRunning {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return service.JobStatus{}
}

func TestServiceJobLifecycle(t *testing.T) {
	st := openStore(t)
	s := startService(t, service.Config{Store: st})

	sub, err := s.Submit(service.JobSpec{Workload: "paxos"})
	if err != nil {
		t.Fatal(err)
	}
	if sub.ID != "job-1" || sub.State != service.StateQueued {
		t.Fatalf("fresh submission: %+v", sub)
	}
	got := waitJob(t, s, sub.ID)
	if got.State != service.StateDone {
		t.Fatalf("state=%s err=%q", got.State, got.Error)
	}
	if got.Result == nil || !got.Result.Complete || len(got.Result.Bugs) != 0 {
		t.Fatalf("correct paxos result: %+v", got.Result)
	}
	if got.CheckpointRounds == 0 {
		t.Fatal("no rounds checkpointed")
	}
	if got.RunID != sub.ID {
		t.Fatalf("run bucket %q, want the job ID", got.RunID)
	}

	// The result is durable: the store bucket is finished, carries the
	// serialized result, and holds every checkpointed round.
	meta, ok := st.Run(sub.ID)
	if !ok || !meta.Done {
		t.Fatalf("store bucket not finished: %+v", meta)
	}
	if meta.Rounds != got.CheckpointRounds {
		t.Fatalf("store has %d rounds, status says %d", meta.Rounds, got.CheckpointRounds)
	}
	var stored service.JobResult
	if err := json.Unmarshal([]byte(meta.Detail), &stored); err != nil {
		t.Fatalf("stored detail is not a JobResult: %v", err)
	}
	if stored.Stats.Transitions != got.Result.Stats.Transitions {
		t.Fatal("stored result diverged from reported result")
	}
}

func TestServiceFindsBugs(t *testing.T) {
	st := openStore(t)
	s := startService(t, service.Config{Store: st})
	sub, err := s.Submit(service.JobSpec{Workload: "twophase-bug", First: true})
	if err != nil {
		t.Fatal(err)
	}
	got := waitJob(t, s, sub.ID)
	if got.State != service.StateDone || got.Result == nil {
		t.Fatalf("state=%s", got.State)
	}
	if len(got.Result.Bugs) == 0 {
		t.Fatal("majority 2PC bug not reported")
	}
	if got.Result.Bugs[0].Invariant == "" || got.Result.Bugs[0].Detail == "" {
		t.Fatalf("bug summary incomplete: %+v", got.Result.Bugs[0])
	}
}

func TestServiceGlobalChecker(t *testing.T) {
	st := openStore(t)
	s := startService(t, service.Config{Store: st})
	sub, err := s.Submit(service.JobSpec{Workload: "tree", Checker: "global"})
	if err != nil {
		t.Fatal(err)
	}
	got := waitJob(t, s, sub.ID)
	if got.State != service.StateDone || !got.Result.Complete {
		t.Fatalf("global job: state=%s result=%+v", got.State, got.Result)
	}
	// The global checker has no round structure, so nothing checkpoints.
	if got.CheckpointRounds != 0 {
		t.Fatalf("global job checkpointed %d rounds", got.CheckpointRounds)
	}
}

func TestServiceSubmitRejects(t *testing.T) {
	st := openStore(t)
	s := service.New(service.Config{Store: st})
	cases := []struct {
		spec service.JobSpec
		want string
	}{
		{service.JobSpec{}, "workload"},
		{service.JobSpec{Workload: "no-such"}, "unknown workload"},
		{service.JobSpec{Workload: "paxos", Checker: "tlc"}, "unknown checker"},
		{service.JobSpec{Workload: "paxos", Budget: "fast"}, "budget"},
		{service.JobSpec{Workload: "paxos", Budget: "-5s"}, "negative budget"},
		{service.JobSpec{Workload: "paxos", Depth: -1}, "depth"},
		{service.JobSpec{Workload: "paxos", Reduce: "magic"}, "magic"},
	}
	for i, tc := range cases {
		if _, err := s.Submit(tc.spec); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("case %d: err=%v, want containing %q", i, err, tc.want)
		}
	}
	if _, err := s.Submit(service.JobSpec{ID: "dup", Workload: "paxos"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(service.JobSpec{ID: "dup", Workload: "paxos"}); err == nil {
		t.Fatal("duplicate job ID accepted")
	}
	// Without a Run loop the job stays queued; cancelling drops it.
	if !s.Cancel("dup") {
		t.Fatal("cancel of a queued job refused")
	}
	if got, _ := s.Job("dup"); got.State != service.StateCancelled {
		t.Fatalf("state=%s after cancel", got.State)
	}
	if s.Cancel("dup") {
		t.Fatal("cancel of a cancelled job accepted")
	}
}

// TestServiceReduceAcceptsPOR: a stored spec that names the deleted
// partial-order reduction ("sym,por") still validates, and its job returns
// exactly what the "sym" job returns.
func TestServiceReduceAcceptsPOR(t *testing.T) {
	st := openStore(t)
	s := startService(t, service.Config{Store: st})
	result := func(reduce string) *service.JobResult {
		sub, err := s.Submit(service.JobSpec{Workload: "twophase-bug", Checker: "lmc", Reduce: reduce})
		if err != nil {
			t.Fatalf("reduce %q: %v", reduce, err)
		}
		got := waitJob(t, s, sub.ID)
		if got.State != service.StateDone || got.Result == nil {
			t.Fatalf("reduce %q: state=%s err=%q", reduce, got.State, got.Error)
		}
		r := got.Result
		r.Stats.Elapsed, r.Stats.SoundnessTime, r.Stats.SystemStateTime = 0, 0, 0
		return r
	}
	sym, por := result("sym"), result("sym,por")
	if sym.Stats.SymmetrySkips == 0 || len(sym.Bugs) == 0 {
		t.Fatalf("the sym job skipped %d combinations and found %d bugs: not a symmetry workload",
			sym.Stats.SymmetrySkips, len(sym.Bugs))
	}
	if !reflect.DeepEqual(sym, por) {
		t.Fatalf("sym,por job diverged from the sym job:\nsym:     %+v\nsym,por: %+v", sym, por)
	}
}

// serviceOptions builds core options for a default lmc-opt job through the
// service's own mapping, so manually planted "previous daemon" buckets
// explore the identical space.
func serviceOptions(t *testing.T, workload string) (bench.Workload, core.Options) {
	t.Helper()
	w, err := bench.Lookup(workload)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := service.JobSpec{Workload: workload, Checker: "lmc-opt"}.CoreOptions(w)
	if err != nil {
		t.Fatal(err)
	}
	return w, opt
}

// plantInterruptedRun simulates a daemon that died mid-job: it creates the
// job's bucket under the given code hash and runs the workload with the
// store sink attached, cancelling at the round-`rounds` barrier — exactly
// the state a SIGKILL at that barrier leaves behind.
func plantInterruptedRun(t *testing.T, st *store.Store, id, workload string, codeHash uint64, rounds int) {
	t.Helper()
	spec := service.JobSpec{ID: id, Workload: workload, Checker: "lmc-opt"}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.CreateRun(id, string(specJSON), codeHash, spec.Sig()); err != nil {
		t.Fatal(err)
	}
	interruptRun(t, st, id, workload, rounds)
}

// interruptRun checkpoints a default lmc-opt run of workload into the
// existing bucket id and cancels it at the round-`rounds` barrier.
func interruptRun(t *testing.T, st *store.Store, id, workload string, rounds int) {
	t.Helper()
	w, opt := serviceOptions(t, workload)
	opt.Checkpoint = st.Sink(id)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opt.Observer = obs.FuncObserver(func(e obs.Event) {
		if e.Kind == obs.KindCheckpoint && e.Detail == "" && e.Pass == 1 && e.Round == rounds {
			cancel()
		}
	})
	res, err := core.CheckContext(ctx, w.Machine, model.InitialSystem(w.Machine), opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete {
		t.Fatalf("interrupted run completed before round %d; pick a shallower cut", rounds)
	}
	meta, _ := st.Run(id)
	if meta.Rounds != rounds {
		t.Fatalf("planted %d rounds, want %d", meta.Rounds, rounds)
	}
}

func TestServiceRecoverResumes(t *testing.T) {
	const codeHash = 7
	st := openStore(t)
	plantInterruptedRun(t, st, "j1", "paxos", codeHash, 2)

	// "Restart the daemon": a new service over the same store.
	s := service.New(service.Config{Store: st, CodeHash: codeHash})
	s.Recover()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go s.Run(ctx)

	got := waitJob(t, s, "j1")
	if got.State != service.StateDone {
		t.Fatalf("state=%s err=%q", got.State, got.Error)
	}
	if !got.Result.Resumed {
		t.Fatal("recovered job did not resume from its checkpoints")
	}
	if got.Result.Invalidated != "" {
		t.Fatalf("clean resume reported an invalidation: %q", got.Result.Invalidated)
	}

	// The resumed result matches an uninterrupted run of the same job.
	w, opt := serviceOptions(t, "paxos")
	base, err := core.CheckContext(context.Background(), w.Machine, model.InitialSystem(w.Machine), opt)
	if err != nil {
		t.Fatal(err)
	}
	if got.Result.Stats.Transitions != base.Stats.Transitions ||
		got.Result.Stats.SystemStates != base.Stats.SystemStates ||
		got.Result.Complete != base.Complete {
		t.Fatalf("resumed result diverged from uninterrupted run:\n got %+v\nbase %+v",
			got.Result.Stats, base.Stats)
	}

	// A second restart adopts the finished job without re-running it.
	s2 := service.New(service.Config{Store: st, CodeHash: codeHash})
	s2.Recover()
	adopted, ok := s2.Job("j1")
	if !ok || adopted.State != service.StateDone {
		t.Fatalf("finished job not adopted on restart: %+v", adopted)
	}
	if adopted.Result.Stats.Transitions != got.Result.Stats.Transitions {
		t.Fatal("adopted result diverged from the stored one")
	}

	// A finished run whose stored result does not parse is not dropped: it
	// surfaces as a failed job carrying the parse error.
	if err := st.CreateRun("j2", `{"id":"j2","workload":"paxos"}`, codeHash, 0); err != nil {
		t.Fatal(err)
	}
	st.FinishRun("j2", `{"complete":`)
	s3 := service.New(service.Config{Store: st, CodeHash: codeHash})
	s3.Recover()
	broken, ok := s3.Job("j2")
	if !ok || broken.State != service.StateFailed || !strings.Contains(broken.Error, "stored result") {
		t.Fatalf("finished job with an unreadable result: present=%v %+v", ok, broken)
	}
	if still, _ := s3.Job("j1"); still.State != service.StateDone {
		t.Fatalf("readable finished job after an unreadable one: %+v", still)
	}
}

func TestServiceRecoverInvalidatesStaleCode(t *testing.T) {
	st := openStore(t)
	plantInterruptedRun(t, st, "j1", "paxos", 7, 2)

	// The "rebuilt" daemon has a different code hash: the stored rounds
	// are untrustworthy, so the job must re-run from scratch.
	s := service.New(service.Config{Store: st, CodeHash: 8})
	s.Recover()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go s.Run(ctx)

	got := waitJob(t, s, "j1")
	if got.State != service.StateDone {
		t.Fatalf("state=%s err=%q", got.State, got.Error)
	}
	if got.Result.Resumed {
		t.Fatal("job resumed from checkpoints written by a different binary")
	}
	if !strings.Contains(got.Result.Invalidated, "binary") {
		t.Fatalf("invalidation reason %q", got.Result.Invalidated)
	}
	// The old bucket is invalidated; the fresh run checkpointed into a new
	// one and finished there.
	old, _ := st.Run("j1")
	if !old.Invalid {
		t.Fatal("stale bucket not invalidated")
	}
	if got.RunID == "j1" {
		t.Fatal("fresh run reused the invalidated bucket")
	}
	fresh, ok := st.Run(got.RunID)
	if !ok || !fresh.Done || fresh.Rounds == 0 {
		t.Fatalf("fresh bucket wrong: %+v", fresh)
	}
}

func TestServiceResumeDivergenceBackstop(t *testing.T) {
	const codeHash = 7
	st := openStore(t)
	// Plant checkpoints that CLAIM to be paxos (spec, sig, hash all match)
	// but were actually produced by a different protocol: the startup
	// staleness checks cannot catch this, only the per-round digest can.
	spec := service.JobSpec{ID: "j1", Workload: "paxos", Checker: "lmc-opt"}
	specJSON, _ := json.Marshal(spec)
	if err := st.CreateRun("j1", string(specJSON), codeHash, spec.Sig()); err != nil {
		t.Fatal(err)
	}
	w, opt := serviceOptions(t, "twophase")
	opt.Checkpoint = st.Sink("j1")
	ctx0, cancel0 := context.WithCancel(context.Background())
	defer cancel0()
	opt.Observer = obs.FuncObserver(func(e obs.Event) {
		if e.Kind == obs.KindCheckpoint && e.Detail == "" && e.Pass == 1 && e.Round == 2 {
			cancel0()
		}
	})
	if _, err := core.CheckContext(ctx0, w.Machine, model.InitialSystem(w.Machine), opt); err != nil {
		t.Fatal(err)
	}

	s := service.New(service.Config{Store: st, CodeHash: codeHash})
	s.Recover()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go s.Run(ctx)

	got := waitJob(t, s, "j1")
	if got.State != service.StateDone {
		t.Fatalf("state=%s err=%q", got.State, got.Error)
	}
	if !strings.Contains(got.Result.Invalidated, "diverged") {
		t.Fatalf("divergence not reported: %+v", got.Result)
	}
	if got.RunID == "j1" {
		t.Fatal("diverged bucket reused")
	}
	// The retry's fresh result matches a plain paxos run.
	pw, popt := serviceOptions(t, "paxos")
	base, err := core.CheckContext(context.Background(), pw.Machine, model.InitialSystem(pw.Machine), popt)
	if err != nil {
		t.Fatal(err)
	}
	if got.Result.Stats.Transitions != base.Stats.Transitions || !got.Result.Complete {
		t.Fatalf("post-divergence rerun diverged from a clean run:\n got %+v\nbase %+v",
			got.Result.Stats, base.Stats)
	}
	if old, _ := st.Run("j1"); !old.Invalid {
		t.Fatal("diverged bucket not invalidated")
	}
}

// TestServiceResumedShardedSpecRunsInProcess is the compatibility test for
// stores and clients that predate the removal of JobSpec.Shards: a run whose
// stored spec carries "shards" (what a parent-commit daemon wrote — Sig never
// covered the field) is recovered, resumes in-process and completes, and a
// submission carrying the key is accepted with the key ignored.
func TestServiceResumedShardedSpecRunsInProcess(t *testing.T) {
	const codeHash = 7
	const specJSON = `{"id":"j1","workload":"paxos","checker":"lmc-opt","shards":4}`
	st := openStore(t)
	sig := service.JobSpec{ID: "j1", Workload: "paxos", Checker: "lmc-opt"}.Sig()
	if err := st.CreateRun("j1", specJSON, codeHash, sig); err != nil {
		t.Fatal(err)
	}
	interruptRun(t, st, "j1", "paxos", 2)

	s := service.New(service.Config{Store: st, CodeHash: codeHash})
	s.Recover()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go s.Run(ctx)
	got := waitJob(t, s, "j1")
	if got.State != service.StateDone || !got.Result.Resumed || !got.Result.Complete ||
		got.Result.Invalidated != "" {
		t.Fatalf("sharded-spec resume: state=%s result=%+v err=%q", got.State, got.Result, got.Error)
	}

	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/jobs", "application/json",
		strings.NewReader(`{"id":"j2","workload":"paxos","shards":2}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf(`submission with a "shards" key: %d`, resp.StatusCode)
	}
	if got := waitJob(t, s, "j2"); got.State != service.StateDone || !got.Result.Complete {
		t.Fatalf(`job submitted with a "shards" key: state=%s err=%q`, got.State, got.Error)
	}
}

// TestSubmitNeverBlocks: with no Run goroutine draining the queue, Submit
// fills it to its bound and then refuses — it must not block while holding
// the service lock, which would hang every status read with it.
func TestSubmitNeverBlocks(t *testing.T) {
	s := service.New(service.Config{Store: openStore(t)})
	for i := 0; i < 1024; i++ {
		if _, err := s.Submit(service.JobSpec{Workload: "tree"}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if _, err := s.Submit(service.JobSpec{Workload: "tree"}); err == nil {
		t.Fatal("submit beyond the queue bound accepted")
	}
	if n := len(s.Jobs()); n != 1024 {
		t.Fatalf("Jobs() lists %d jobs, want 1024", n)
	}
}

// TestRecoverBeyondQueueBound: Recover runs before Run, so a store holding
// more unfinished runs than Submit's bound must still re-enqueue them all
// without blocking.
func TestRecoverBeyondQueueBound(t *testing.T) {
	st := openStore(t)
	const runs = 1030
	for i := 0; i < runs; i++ {
		spec := service.JobSpec{ID: fmt.Sprintf("r%d", i), Workload: "tree", Checker: "lmc-opt"}
		specJSON, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.CreateRun(spec.ID, string(specJSON), 1, spec.Sig()); err != nil {
			t.Fatal(err)
		}
	}
	s := service.New(service.Config{Store: st, CodeHash: 1})
	s.Recover()
	if n := len(s.Jobs()); n != runs {
		t.Fatalf("recovered %d jobs, want %d", n, runs)
	}
}
