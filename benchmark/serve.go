package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"syscall"
	"time"

	"lmc/internal/core"
	"lmc/internal/service"
	"lmc/internal/store"
)

// serve-resume drives the real lmc binary from outside: `lmc -serve` on a
// temp store over HTTP, SIGKILL and restart, a burst on the warm daemon,
// and cold one-shot CLI runs. It is the only workload where
// internal/service, internal/store and cmd/lmc start-up do the work; the
// job it submits is bughunt's, so the two verdict times differ by the
// daemon and checkpoint tax.

const (
	// These bound every wait on the daemon: start-up, one HTTP request, one
	// job. A daemon that misses one is a failed operation.
	daemonStartWait = 10 * time.Second
	requestWait     = 5 * time.Second
	jobWait         = 60 * time.Second
	pollEvery       = 2 * time.Millisecond
)

// bughuntJob is bughunt's check as a daemon job, pinned to one engine
// goroutine like the in-process workloads.
const bughuntJob = `{"id":%q,"workload":"paxos-bug","checker":"lmc-opt","first":true,"workers":-1}`

// burstJob is the 3-node registry Paxos under LMC-GEN (~15 ms of checking),
// so a burst measures the queue and the store, not the engine.
const burstJob = `{"id":%q,"workload":"paxos","checker":"lmc","workers":-1}`

// daemon is one running `lmc -serve`.
type daemon struct {
	cmd  *exec.Cmd
	base string
	// ready is spawn → first HTTP 200.
	ready time.Duration
}

var listenLine = regexp.MustCompile(`listening on (http://[^/\s]+)/`)

var httpClient = &http.Client{Timeout: requestWait}

// startDaemon launches the daemon on an ephemeral loopback port and waits
// for its first 200. The caller's goroutine must be locked to its OS thread:
// the daemon is set to die with the thread that started it, so an abandoned
// benchmark leaves no daemon behind.
func startDaemon(cfg childConfig, storePath string) (*daemon, error) {
	cmd := exec.Command(cfg.lmcBin, "-serve", "-listen", "127.0.0.1:0", "-store", storePath)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if m := listenLine.FindStringSubmatch(sc.Text()); m != nil {
				addr <- m[1]
				break
			}
		}
		// Keep draining so the daemon never blocks on a full pipe; ends
		// when the daemon exits.
		io.Copy(io.Discard, out)
	}()
	select {
	case d.base = <-addr:
	case <-time.After(daemonStartWait):
		d.kill()
		return nil, fmt.Errorf("daemon printed no listen address within %v", daemonStartWait)
	}
	for {
		resp, err := httpClient.Get(d.base + "/workloads")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(t0) > daemonStartWait {
			d.kill()
			return nil, fmt.Errorf("daemon served no 200 within %v", daemonStartWait)
		}
		time.Sleep(pollEvery)
	}
	d.ready = time.Since(t0)
	return d, nil
}

// kill SIGKILLs the daemon, reaps it, and returns its CPU time and peak RSS.
func (d *daemon) kill() (cpu time.Duration, rssMB float64) {
	d.cmd.Process.Kill()
	d.cmd.Wait()
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		cpu = tvDur(ru.Utime) + tvDur(ru.Stime)
		rssMB = float64(ru.Maxrss) / 1024
	}
	return cpu, rssMB
}

// submit POSTs one job and returns the round-trip time.
func (d *daemon) submit(body string) (time.Duration, error) {
	t0 := time.Now()
	resp, err := httpClient.Post(d.base+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if resp.StatusCode != http.StatusAccepted {
		return 0, fmt.Errorf("POST /jobs: %d %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	return time.Since(t0), nil
}

// status GETs one job.
func (d *daemon) status(id string) (service.JobStatus, time.Duration, error) {
	var st service.JobStatus
	t0 := time.Now()
	resp, err := httpClient.Get(d.base + "/jobs/" + id)
	if err != nil {
		return st, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, 0, fmt.Errorf("GET /jobs/%s: %d", id, resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, time.Since(t0), err
}

// await polls one job until done(st) holds, collecting the poll round trips.
func (d *daemon) await(id string, rtts *[]float64, done func(service.JobStatus) bool) (service.JobStatus, error) {
	deadline := time.Now().Add(jobWait)
	for {
		st, rtt, err := d.status(id)
		if err != nil {
			return st, err
		}
		if rtts != nil {
			*rtts = append(*rtts, rtt.Seconds())
		}
		if done(st) {
			return st, nil
		}
		if st.State == service.StateFailed {
			return st, fmt.Errorf("job %s failed: %s", id, st.Error)
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("job %s not finished within %v (state %s)", id, jobWait, st.State)
		}
		time.Sleep(pollEvery)
	}
}

func finished(st service.JobStatus) bool { return st.State == service.StateDone }

// verdictOfJob turns a daemon job result into the oracle's terms.
func verdictOfJob(st service.JobStatus) verdict {
	if st.Result == nil {
		return verdict{Stop: "no result"}
	}
	return verdict{Stop: st.Result.StopReason, Complete: st.Result.Complete,
		Counters: countersOf(&st.Result.Stats)}
}

// serveShape is how much of each phase one run does; submits 0 means as
// many as the time budget holds.
type serveShape struct {
	submits, kills, burst, cold int
}

// serveRun is the state the phases of one serve-resume run share.
type serveRun struct {
	cfg   childConfig
	w     workload
	store string
	// tag prefixes every job id, so runs with different seeds submit
	// different ids.
	tag string
	tr  *tracer
	L   map[string]float64
	rep report
	// first is the first served verdict; later ones must equal it.
	first *verdict
}

func (r *serveRun) fail(format string, args ...any) {
	r.rep.Failures = append(r.rep.Failures, fmt.Sprintf(format, args...))
}

// judge is the oracle for one served job. The job is bughunt's at every
// scale, so the pinned table always applies.
func (r *serveRun) judge(st service.JobStatus) []string {
	return judge(r.w, false, verdictOfJob(st), r.first)
}

func runServeChild(cfg childConfig, w workload) error {
	// Every daemon is started from this goroutine; see startDaemon.
	runtime.LockOSThread()
	r := &serveRun{cfg: cfg, w: w, store: filepath.Join(cfg.tmpDir, "ckpt.lmcstore"),
		tag: fmt.Sprintf("s%d", cfg.seed), L: make(map[string]float64), rep: report{Workload: w.name}}
	d, err := startDaemon(cfg, r.store)
	if err != nil {
		return err
	}
	emit(map[string]bool{"ready": true})
	if cfg.setupOnly {
		d.kill()
		return nil
	}

	// An untraced run spends its time on submit→verdict, the end-to-end
	// number, plus one kill-and-resume as a correctness operation. The
	// traced run measures every service and store figure: more kills, the
	// burst, the cold CLI runs, the in-process store probe. A fixed count of
	// submits replaces the time budget where the time is spent elsewhere.
	shape := serveShape{kills: 1}
	switch {
	case cfg.tiny && cfg.traced:
		shape = serveShape{submits: 1, kills: 1, burst: 5, cold: 2}
	case cfg.tiny:
		shape = serveShape{submits: 1, kills: 1}
	case cfg.traced:
		shape = serveShape{submits: 3, kills: 3, burst: 200, cold: 10}
	}
	if cfg.traced {
		r.tr = newTracer()
	}
	r.L["service.ready_s"] = d.ready.Seconds()

	r.submitPhase(d, shape)
	if d = r.killPhase(shape); d != nil {
		if shape.burst > 0 {
			// A burst of small jobs on the warm daemon, in seeded order.
			if perS, err := runBurst(d, r.tag, shape.burst, cfg.seed, r.tr); err != nil {
				r.fail("burst: %v", err)
			} else {
				r.L["service.jobs_per_s"] = perS
			}
		}
		d.kill()
	}
	r.coldPhase(shape.cold)

	if cfg.traced {
		var served []float64
		for _, c := range r.rep.Checks {
			served = append(served, c.VerdictS)
		}
		if bareS, ok := probeStore(cfg, r.tr, r.L, &r.rep); ok {
			r.L["service.tax_s"] = median(served) - bareS
		}
		probeFrame(cfg.seed, r.L)
		r.rep.Layers = r.L
		r.rep.Spans = r.tr.spans
	}
	emit(r.rep)
	return nil
}

// submitPhase is submit → verdict, one job at a time, on a daemon that does
// nothing else, so its CPU time divides evenly over the jobs. It reaps the
// daemon.
func (r *serveRun) submitPhase(d *daemon, shape serveShape) {
	// One kill-and-resume takes about two job lengths and two daemon starts.
	budget := r.cfg.seconds - 2.5*float64(shape.kills)
	var submitRTT, statusRTT []float64
	begin := time.Now()
	for i := 0; ; i++ {
		id := fmt.Sprintf("%s-submit-%d", r.tag, i)
		var cr checkReport
		root := r.tr.begin("check", 0, i+1)
		t0 := time.Now()
		sp := r.tr.begin("service.submit", root, i+1)
		rtt, err := d.submit(fmt.Sprintf(bughuntJob, id))
		r.tr.end(sp)
		var st service.JobStatus
		if err == nil {
			submitRTT = append(submitRTT, rtt.Seconds())
			sp = r.tr.begin("service.await_verdict", root, i+1)
			st, err = d.await(id, &statusRTT, finished)
			r.tr.end(sp)
		}
		cr.VerdictS = time.Since(t0).Seconds()
		r.tr.end(root)
		if err != nil {
			cr.Failures = []string{err.Error()}
		} else {
			cr.Verdict = verdictOfJob(st)
			cr.Failures = r.judge(st)
			if st.Result.Resumed {
				cr.Failures = append(cr.Failures, "fresh job reported resumed=true")
			}
			if r.first == nil {
				r.first = &cr.Verdict
				r.L["service.checkpoint_rounds"] = float64(st.CheckpointRounds)
				// The daemon's own split of the job, for the core. rows.
				coreLayers(&st.Result.Stats, r.L)
			}
		}
		r.rep.Checks = append(r.rep.Checks, cr)
		enough := time.Since(begin).Seconds()+cr.VerdictS > budget
		if shape.submits > 0 {
			enough = i+1 >= shape.submits
		}
		if enough || len(cr.Failures) > 0 {
			break
		}
	}
	cpu, rss := d.kill()
	r.rep.ChildPeakRSSMB = rss
	// cpu_s is the daemon's CPU per job: a mean, since a daemon's rusage is
	// only readable once, when it is reaped.
	for i := range r.rep.Checks {
		r.rep.Checks[i].CPUS = cpu.Seconds() / float64(len(r.rep.Checks))
	}
	r.L["service.submit_rtt_s"] = median(submitRTT)
	r.L["service.status_rtt_s"] = median(statusRTT)
}

// killPhase is kill and resume: each victim is SIGKILLed once two of its
// rounds are durable, and the next daemon on the same store must resume it
// (not re-run it) to bughunt's exact result. It returns the last daemon,
// warm and idle, or nil after a failure.
func (r *serveRun) killPhase(shape serveShape) *daemon {
	d, err := startDaemon(r.cfg, r.store)
	if err != nil {
		r.fail("restart before the kill phase: %v", err)
		return nil
	}
	var resumeS, recoverS []float64
	for k := 0; k < shape.kills; k++ {
		id := fmt.Sprintf("%s-victim-%d", r.tag, k)
		_, err := d.submit(fmt.Sprintf(bughuntJob, id))
		if err == nil {
			_, err = d.await(id, nil, func(st service.JobStatus) bool {
				return st.CheckpointRounds >= 2 || finished(st)
			})
		}
		d.kill()
		if err != nil {
			r.fail("kill %d: %v", k, err)
			return nil
		}
		sp := r.tr.begin("service.resume_to_verdict", 0, 0)
		t0 := time.Now()
		if d, err = startDaemon(r.cfg, r.store); err != nil {
			r.fail("kill %d: restart: %v", k, err)
			return nil
		}
		recoverS = append(recoverS, d.ready.Seconds())
		st, err := d.await(id, nil, finished)
		r.tr.end(sp)
		if err != nil {
			r.fail("kill %d: %v", k, err)
			d.kill()
			return nil
		}
		resumeS = append(resumeS, time.Since(t0).Seconds())
		for _, f := range r.judge(st) {
			r.fail("kill %d: resumed job: %s", k, f)
		}
		if !st.Result.Resumed {
			r.fail("kill %d: the restarted daemon re-ran the job instead of resuming it", k)
		}
	}
	r.L["service.resume_to_verdict_s"] = median(resumeS)
	r.L["service.recover_s"] = median(recoverS)
	return d
}

// coldPhase is n cold one-shot CLI runs, process spawn → exit.
func (r *serveRun) coldPhase(n int) {
	var cold []float64
	for i := 0; i < n; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), jobWait)
		sp := r.tr.begin("cli.cold", 0, 0)
		t0 := time.Now()
		out, err := exec.CommandContext(ctx, r.cfg.lmcBin, "-workload", "paxos", "-workers", "-1").Output()
		took := time.Since(t0)
		r.tr.end(sp)
		cancel()
		if err != nil || !bytes.Contains(out, []byte("complete=true bugs=0")) {
			r.fail("cold run %d: err=%v output %q", i, err, out)
			break
		}
		cold = append(cold, took.Seconds())
	}
	r.L["service.cli_cold_s"] = median(cold)
}

// runBurst submits n small jobs back to back and waits for the last one;
// the daemon runs its queue in order, so the last verdict ends the burst.
// It returns jobs completed per second, first submit → last verdict.
func runBurst(d *daemon, tag string, n int, seed int64, tr *tracer) (float64, error) {
	sp := tr.begin("service.burst", 0, 0)
	defer tr.end(sp)
	order := rand.New(rand.NewSource(seed)).Perm(n)
	t0 := time.Now()
	last := ""
	for _, k := range order {
		last = fmt.Sprintf("%s-burst-%d", tag, k)
		if _, err := d.submit(fmt.Sprintf(burstJob, last)); err != nil {
			return 0, err
		}
	}
	if _, err := d.await(last, nil, finished); err != nil {
		return 0, err
	}
	took := time.Since(t0).Seconds()
	for _, k := range order {
		id := fmt.Sprintf("%s-burst-%d", tag, k)
		st, _, err := d.status(id)
		if err != nil {
			return 0, err
		}
		if !finished(st) {
			return 0, fmt.Errorf("%s is %s after the last job finished", id, st.State)
		}
		if diff := diffVerdict(verdictOfJob(st), pinned["burst"]); len(diff) > 0 {
			return 0, fmt.Errorf("%s: %s", id, strings.Join(diff, "; "))
		}
	}
	return float64(n) / took, nil
}

// probeStore measures internal/store from outside, in this process: a
// bughunt check checkpointing into a fresh store file through a timed sink,
// the reopen of that file, and a check resumed from it through a counted
// resume source. Bare checks first give the time the service tax is measured
// against, which it returns (ok=false when the probe failed).
func probeStore(cfg childConfig, tr *tracer, L map[string]float64, rep *report) (bareS float64, ok bool) {
	fail := func(format string, args ...any) {
		rep.Failures = append(rep.Failures, "store probe: "+fmt.Sprintf(format, args...))
	}
	in, err := buildBughunt(cfg.seed, cfg.tiny)
	if err != nil {
		fail("%v", err)
		return 0, false
	}
	// Three bare checks, so the reference is a warm median like the
	// daemon's (one at tiny scale, where only the wiring is tested).
	var bare checkReport
	var bares []float64
	for i := 0; i < 3 && (i == 0 || !cfg.tiny); i++ {
		if bare, err = runCheck(in); err != nil {
			fail("%v", err)
			return 0, false
		}
		bares = append(bares, bare.VerdictS)
	}

	const run = "probe"
	path := filepath.Join(cfg.tmpDir, "probe.lmcstore")
	st, err := store.Open(path)
	if err != nil {
		fail("%v", err)
		return 0, false
	}
	if err := st.CreateRun(run, "{}", 1, 1); err != nil {
		st.Close()
		fail("%v", err)
		return 0, false
	}
	root := tr.begin("store.checkpointed_check", 0, 0)
	sk := &tracedSink{inner: st.Sink(run), tr: tr, parent: root}
	withSink := *in
	withSink.opt.Checkpoint = sk
	cr, err := runCheck(&withSink)
	tr.end(root)
	st.Close()
	if err != nil {
		fail("%v", err)
		return 0, false
	}
	for _, d := range diffVerdict(cr.Verdict, bare.Verdict) {
		fail("checkpointed check differs from the bare check: %s", d)
	}
	L["store.append_calls"] = float64(sk.calls)
	L["store.append_busy_s"] = sk.busy.Seconds()
	L["store.records"] = float64(sk.records)
	if fi, err := os.Stat(path); err == nil {
		L["store.bytes"] = float64(fi.Size())
	}

	sp := tr.begin("store.open", 0, 0)
	t0 := time.Now()
	st, err = store.Open(path)
	L["store.open_replay_s"] = time.Since(t0).Seconds()
	tr.end(sp)
	if err != nil {
		fail("reopen: %v", err)
		return 0, false
	}
	defer st.Close()
	src := st.Resume(run)
	if src == nil {
		fail("the reopened store has nothing to resume")
		return 0, false
	}
	rs := &tracedResume{inner: src}
	resumed := *in
	resumed.opt.Resume = core.ResumeSource(rs)
	sp = tr.begin("store.resumed_check", 0, 0)
	rr, err := runCheck(&resumed)
	tr.end(sp)
	if err != nil {
		fail("%v", err)
		return 0, false
	}
	for _, d := range diffVerdict(rr.Verdict, bare.Verdict) {
		fail("resumed check differs from the bare check: %s", d)
	}
	L["store.resume_hint_calls"] = float64(rs.calls)
	L["store.resume_hit_share"] = ratio(float64(rs.hits), float64(rs.calls))
	L["store.resume_check_s"] = rr.VerdictS
	return median(bares), true
}
