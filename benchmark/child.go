package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"

	"lmc"
	"lmc/internal/core"
	"lmc/internal/obs"
	"lmc/internal/shard"
	"lmc/internal/stats"
)

// checkTimeout bounds one check. The engine polls its context at round
// barriers; the harness additionally kills a child that outlives its own
// deadline, so a hung worker is a failed run, never a hung benchmark.
const checkTimeout = 150 * time.Second

// checkReport is one check as the child saw it.
type checkReport struct {
	VerdictS float64  `json:"verdict_s"`
	CPUS     float64  `json:"cpu_s"`
	Verdict  verdict  `json:"verdict"`
	Failures []string `json:"failures,omitempty"`
}

// report is what a measuring child hands the harness on its last line.
type report struct {
	Workload string `json:"workload"`
	// Checks are the untraced checks: the end-to-end samples.
	Checks []checkReport `json:"checks"`
	// ChildPeakRSSMB is the peak RSS of the largest process this child
	// reaped (shard worker, daemon); the harness reads the child's own peak
	// from its exit status.
	ChildPeakRSSMB float64 `json:"child_peak_rss_mb"`
	// Layers and Spans are set by a traced child.
	Layers   map[string]float64 `json:"layers,omitempty"`
	Spans    []span             `json:"spans,omitempty"`
	Failures []string           `json:"failures,omitempty"`
}

// childConfig is what the harness passes a child on its command line.
type childConfig struct {
	workload  string
	seed      int64
	seconds   float64
	traced    bool
	tiny      bool
	setupOnly bool
	lmcBin    string
	tmpDir    string
}

// emit writes one protocol line to the harness.
func emit(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	os.Stdout.Write(append(b, '\n'))
}

// runChild is the body of `benchmark -child <workload>`: set up, tell the
// harness the first check could begin, run the checks, print the report.
func runChild(cfg childConfig) error {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return err
	}
	if w.build == nil {
		return runServeChild(cfg, w)
	}
	in, err := w.build(cfg.seed, cfg.tiny)
	if err != nil {
		return err
	}
	if in.shardSpec != "" {
		// Bring the fleet up once: spawn, handshake, resolve, tear down.
		warm := *in
		warm.opt.MaxTransitions = 1
		if _, err := runCheck(&warm); err != nil {
			return fmt.Errorf("shard fleet bring-up: %w", err)
		}
	}
	emit(map[string]bool{"ready": true})
	if cfg.setupOnly {
		return nil
	}

	rep := report{Workload: w.name}
	if cfg.traced {
		runTraced(cfg, w, in, &rep)
	} else {
		var first *verdict
		begin := time.Now()
		for {
			cr, err := runCheck(in)
			if err != nil {
				cr.Failures = append(cr.Failures, err.Error())
			}
			cr.Failures = append(cr.Failures, judge(w, cfg.tiny, cr.Verdict, first)...)
			rep.Checks = append(rep.Checks, cr)
			if first == nil {
				v := cr.Verdict
				first = &v
			}
			// Stop when another check of the same length would overrun.
			if time.Since(begin).Seconds()+cr.VerdictS > cfg.seconds {
				break
			}
		}
	}
	rep.ChildPeakRSSMB = childrenPeakRSSMB()
	emit(rep)
	return nil
}

// selfExecSpawner re-executes this binary as the shard worker, one OS
// thread of parallelism like the coordinator.
func selfExecSpawner() shard.Spawner {
	return shard.SelfExec{Args: []string{"-shard-worker"}, Env: []string{"GOMAXPROCS=1"}}
}

// engineCall is the call into the engine: in-process, or through two shard
// processes when the input asks for it.
func engineCall(in *input, spawner shard.Spawner) (*core.Result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), checkTimeout)
	defer cancel()
	if in.shardSpec != "" {
		return shard.Check(ctx, in.m, in.start, in.opt, shard.Config{
			Shards: 2, Spawner: spawner, Spec: in.shardSpec,
		})
	}
	return core.CheckContext(ctx, in.m, in.start, in.opt)
}

// runCheck runs one bare check end to end: the engine call, then the replay
// of every reported schedule against the real handlers. The verdict is in
// hand only after the replay, so both are inside verdict_s and cpu_s.
func runCheck(in *input) (checkReport, error) {
	t0, cpu0 := time.Now(), cpuNow()
	res, err := engineCall(in, selfExecSpawner())
	if err != nil {
		return checkReport{}, err
	}
	var cr checkReport
	for i, b := range res.Bugs {
		if rerr := lmc.Replay(in.m, in.start, b.Schedule); rerr != nil {
			cr.Failures = append(cr.Failures, fmt.Sprintf("bug %d does not replay: %v", i, rerr))
		}
	}
	cr.VerdictS = time.Since(t0).Seconds()
	cr.CPUS = (cpuNow() - cpu0).Seconds()
	cr.Verdict = verdictOf(res)
	if in.shardSpec != "" && res.Stats.ShardWaitTime == 0 {
		cr.Failures = append(cr.Failures, "sharded check never waited on a worker: the fleet did not run")
	}
	return cr, nil
}

// coreLayers fills the core. rows every traced run has from a check's
// counters: the phase split, the counts, the rates. The self times start as
// the whole phase; a caller with probes inside the phase takes their busy
// time off.
func coreLayers(s *stats.Counters, L map[string]float64) {
	ph := obs.Attribution(s, s.Elapsed)
	L["core.explore_s"] = ph.Explore.Seconds()
	L["core.explore_self_s"] = ph.Explore.Seconds()
	L["core.sysstate_s"] = ph.SystemStates.Seconds()
	L["core.sysstate_self_s"] = ph.SystemStates.Seconds()
	L["core.soundness_s"] = ph.Soundness.Seconds()
	for k, v := range countersOf(s) {
		if k != "confirmed_bugs" {
			L["core."+k] = float64(v)
		}
	}
	L["core.confirmed_share"] = ratio(float64(s.ConfirmedBugs), float64(s.PreliminaryViolations))
	L["core.transitions_per_s"] = ratio(float64(s.Transitions), ph.Explore.Seconds())
	L["core.sysstates_per_s"] = ratio(float64(s.SystemStates), ph.SystemStates.Seconds())
}

// runTraced is the traced child: one bare check for reference, one check
// with every probe installed, then the offline probes over what the traced
// machine captured.
func runTraced(cfg childConfig, w workload, in *input, rep *report) {
	L := make(map[string]float64)
	tr := newTracer()

	// Reference: the bare engine, also the source of the allocation numbers
	// (the probes allocate, the engine's own figure must not include that).
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	base, err := runCheck(in)
	runtime.ReadMemStats(&m1)
	if err != nil {
		rep.Failures = append(rep.Failures, "reference check: "+err.Error())
		return
	}
	base.Failures = append(base.Failures, judge(w, cfg.tiny, base.Verdict, nil)...)
	rep.Checks = append(rep.Checks, base)
	L["core.allocs_per_check"] = float64(m1.Mallocs - m0.Mallocs)
	L["core.alloc_mb_per_check"] = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	L["core.gc_pause_s"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e9

	// shard2-explore: the same input in-process gives the sequential CPU the
	// replication tax is a ratio of, and the result it must equal.
	var seq *checkReport
	if in.shardSpec != "" {
		plain := *in
		plain.shardSpec = ""
		s, err := runCheck(&plain)
		if err != nil {
			rep.Failures = append(rep.Failures, "sequential reference: "+err.Error())
			return
		}
		seq = &s
	}

	// The traced check.
	const checkID = 1
	root := tr.begin("check", 0, checkID)
	traced := *in
	var tm *tracedMachine
	traced.m, tm = traceMachine(in.m, cfg.seed)
	ti := &tracedInvariant{inner: in.opt.Invariant}
	traced.opt.Invariant = ti
	tred := &tracedReduction{}
	if in.opt.Reduction != nil {
		traced.opt.Reduction, tred = traceReduction(in.opt.Reduction)
	}
	engine := tr.begin("core.check", root, checkID)
	to := &tracedObserver{tr: tr, parent: engine, check: checkID}
	traced.opt.Observer = to
	traced.opt.HeartbeatEvery = -1
	ts := &tracedSpawner{inner: selfExecSpawner(), tr: tr, parent: engine, check: checkID}

	// The engine collects garbage before it starts its clock; collecting
	// the reference check's heap here keeps that out of the engine call, so
	// the phase times can be held against the call as timed from outside.
	runtime.GC()
	t0, cpu0, kids0 := time.Now(), cpuNow(), childrenCPU()
	res, err := engineCall(&traced, ts)
	tr.end(engine)
	if err != nil {
		rep.Failures = append(rep.Failures, "traced check: "+err.Error())
		return
	}
	engineS := time.Since(t0).Seconds()
	replay := tr.begin("trace.replay", root, checkID)
	tReplay := time.Now()
	for i, b := range res.Bugs {
		// Replay through the bare machine: the schedule must hold on the
		// real handlers, not on the probe.
		if rerr := lmc.Replay(in.m, in.start, b.Schedule); rerr != nil {
			rep.Failures = append(rep.Failures, fmt.Sprintf("traced check: bug %d does not replay: %v", i, rerr))
		}
		L["trace.witness_events"] += float64(len(b.Schedule))
	}
	if len(res.Bugs) > 0 {
		L["trace.replay_s"] = time.Since(tReplay).Seconds()
	}
	tr.end(replay)
	tr.end(root)
	tracedS := time.Since(t0).Seconds()
	tracedCPU := (cpuNow() - cpu0).Seconds()
	workerCPU := (childrenCPU() - kids0).Seconds()

	// The probes must not change what is checked.
	got := verdictOf(res)
	for _, d := range diffVerdict(got, base.Verdict) {
		rep.Failures = append(rep.Failures, "traced check differs from the bare check: "+d)
	}
	if seq != nil {
		for _, d := range diffVerdict(got, seq.Verdict) {
			rep.Failures = append(rep.Failures, "sharded check differs from the in-process check: "+d)
		}
	}

	st := &res.Stats
	ph := obs.Attribution(st, st.Elapsed)
	// The phases must account for the engine call as timed from outside.
	if sum := (ph.Explore + ph.SystemStates + ph.Soundness + ph.ShardWait).Seconds(); !cfg.tiny &&
		(sum < 0.99*engineS || sum > 1.01*engineS) {
		rep.Failures = append(rep.Failures,
			fmt.Sprintf("phase times sum to %.3fs, the engine call took %.3fs", sum, engineS))
	}

	L["model.handler_calls"] = float64(tm.handlerCalls)
	L["model.handler_busy_s"] = tm.handlerBusy.Seconds()
	L["model.actions_calls"] = float64(tm.actionsCalls)
	L["model.msgs_emitted"] = float64(tm.msgsEmitted)
	L["model.rejected_share"] = ratio(float64(tm.rejected), float64(tm.handlerCalls))

	invBusy := scaled(ti.busy, ti.timed, ti.calls)
	conflictBusy := scaled(tred.busy, tred.timed, tred.conflictCalls)
	L["spec.invariant_checks"] = float64(ti.calls)
	L["spec.invariant_busy_s"] = invBusy
	L["spec.interest_calls"] = float64(tred.interestCalls)
	L["spec.conflict_calls"] = float64(tred.conflictCalls)
	L["spec.conflict_busy_s"] = conflictBusy
	L["spec.conflict_true_share"] = ratio(float64(tred.conflictTrue), float64(tred.conflictCalls))

	coreLayers(st, L)
	L["core.explore_self_s"] -= tm.handlerBusy.Seconds()
	L["core.sysstate_self_s"] -= invBusy + conflictBusy
	L["core.rounds"] = float64(to.rounds)
	L["core.round_max_s"] = to.roundMax.Seconds()

	if traced.shardSpec != "" {
		L["shard.spawn_s"] = ts.spawn.Seconds()
		for _, cn := range ts.conns {
			L["shard.tx_bytes"] += float64(cn.txBytes)
			L["shard.rx_bytes"] += float64(cn.rxBytes)
			L["shard.reads"] += float64(cn.reads)
			L["shard.writes"] += float64(cn.writes)
			L["shard.read_wait_s"] += cn.readWait.Seconds()
		}
		L["shard.coordinator_wait_s"] = ph.ShardWait.Seconds()
		L["shard.worker_cpu_s"] = workerCPU
		L["shard.cpu_over_seq"] = ratio(tracedCPU, seq.CPUS)
		L["shard.degraded"] = float64(to.degraded)
		if to.degraded > 0 {
			rep.Failures = append(rep.Failures, "the shard fleet degraded to in-process exploration")
		}
	}

	L["obs.events"] = float64(to.events)
	L["obs.recorder_overhead_share"] = ratio(to.busy.Seconds(), st.Elapsed.Seconds())
	L["probe.overhead_share"] = ratio(tracedS-base.VerdictS, base.VerdictS)

	probeCodec(tr, tm, in, cfg.seed, L)
	probeNetstate(tr, tm, L)

	rep.Layers = L
	rep.Spans = tr.spans
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func tvDur(tv syscall.Timeval) time.Duration {
	return time.Duration(tv.Sec)*time.Second + time.Duration(tv.Usec)*time.Microsecond
}

func rusageCPU(who int) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	return tvDur(ru.Utime) + tvDur(ru.Stime)
}

// childrenCPU is the user+system time of every child this process has
// reaped so far.
func childrenCPU() time.Duration { return rusageCPU(syscall.RUSAGE_CHILDREN) }

// cpuNow is the user+system time of this process and its reaped children.
// A shard worker is reaped when its check ends, so deltas around a check
// include it.
func cpuNow() time.Duration { return rusageCPU(syscall.RUSAGE_SELF) + childrenCPU() }

// childrenPeakRSSMB is the peak RSS of the largest reaped child (Linux
// reports ru_maxrss in KiB).
func childrenPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_CHILDREN, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
