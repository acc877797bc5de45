// Package service is the resident checking service behind `lmc serve`: a
// sequential job queue over the bench workload registry, executing each job
// under the parallel engine with every completed
// round checkpointed to a persistent store (internal/store). Kill the
// daemon — SIGKILL included — and the next daemon over the same store file
// picks every unfinished job up again, bit-for-bit: a resumed job is a
// verified re-run — the deterministic engine executes the whole check again
// and holds each round to the digest the killed daemon stored for it
// (internal/core/roundlog.go), so its result is the uninterrupted one.
//
// Staleness is handled at two levels. At startup, a stored run whose code
// hash (the checker binary's fingerprint) or options signature disagrees
// with the current daemon is invalidated and re-run fresh — handler code
// changed, so the stored digests describe another run. As a backstop, a resume whose
// post-round digest disagrees with the stored checkpoint stops with
// StopResumeDiverged; the service invalidates that run and re-runs it
// fresh under a new run ID.
package service

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"sync"
	"time"

	"lmc/internal/bench"
	"lmc/internal/core"
	"lmc/internal/mc/global"
	"lmc/internal/model"
	"lmc/internal/obs"
	"lmc/internal/stats"
	"lmc/internal/store"
)

// JobSpec is the wire format of one job submission (POST /jobs).
type JobSpec struct {
	// ID names the job; empty means the service assigns job-<n>.
	ID string `json:"id,omitempty"`
	// Workload is a bench registry name (GET /workloads lists them).
	Workload string `json:"workload"`
	// Checker is "lmc-opt" (default), "lmc", "global" or "bfs".
	Checker string `json:"checker,omitempty"`
	// Reduce is the reduction spec for the LMC checkers ("sym", "all",
	// "none"; empty = off). "por" is accepted and ignored so stored specs
	// that name the deleted partial-order reduction still validate and
	// run as their "sym" twin.
	Reduce string `json:"reduce,omitempty"`
	// Workers sets the in-process worker pool (0 = auto).
	Workers int `json:"workers,omitempty"`
	// Budget is a Go duration string bounding wall time ("30s"; empty =
	// unbounded).
	Budget string `json:"budget,omitempty"`
	// Depth bounds the per-node path depth (LMC) or event depth (global).
	Depth int `json:"depth,omitempty"`
	// First stops at the first confirmed bug.
	First bool `json:"first,omitempty"`
}

// Sig returns the job's options signature: exactly the fields that shape
// the explored state space. Workers and Budget are excluded — exploration
// is bit-for-bit identical across worker counts, and a wall-clock budget
// only decides where a run stops, never what a completed round contains.
func (j JobSpec) Sig() uint64 {
	return store.OptionsSig(j.Workload, j.Checker, j.Reduce,
		strconv.Itoa(j.Depth), strconv.FormatBool(j.First))
}

// validate resolves and normalizes the spec.
func (j *JobSpec) validate() error {
	if j.Workload == "" {
		return fmt.Errorf("service: job needs a workload")
	}
	if _, err := bench.Lookup(j.Workload); err != nil {
		return err
	}
	switch j.Checker {
	case "":
		j.Checker = "lmc-opt"
	case "lmc-opt", "lmc", "global", "bfs":
	default:
		return fmt.Errorf("service: unknown checker %q (want lmc-opt, lmc, global, bfs)", j.Checker)
	}
	if _, err := core.ParseReductions(j.Reduce); err != nil {
		return err
	}
	if j.Budget != "" {
		d, err := time.ParseDuration(j.Budget)
		if err != nil {
			return fmt.Errorf("service: bad budget: %w", err)
		}
		if d < 0 {
			return fmt.Errorf("service: negative budget")
		}
	}
	if j.Depth < 0 {
		return fmt.Errorf("service: negative depth")
	}
	return nil
}

// budget is the spec's wall-clock bound (zero = unbounded). The string was
// vetted by validate, or printed from a time.Duration by lmc's run mode.
func (j JobSpec) budget() time.Duration {
	d, _ := time.ParseDuration(j.Budget)
	return d
}

// CoreOptions maps the job onto the LMC checkers' options for workload w. It
// is the one job→options mapping: the service and lmc's run mode both call
// it, and each sets only what is its own on top (the observer; the run-mode
// deepening flags).
func (j JobSpec) CoreOptions(w bench.Workload) (core.Options, error) {
	reductions, err := core.ParseReductions(j.Reduce)
	if err != nil {
		return core.Options{}, err
	}
	opt := core.Options{
		Invariant:       w.Invariant,
		LocalInvariants: w.Locals,
		Reduce:          reductions,
		MaxPathDepth:    j.Depth,
		Budget:          j.budget(),
		StopAtFirstBug:  j.First,
		Workers:         j.Workers,
	}
	if j.Checker == "lmc-opt" {
		opt.Reduction = w.Reduction
	}
	return opt, nil
}

// GlobalOptions is CoreOptions' counterpart for the "global" and "bfs"
// checkers.
func (j JobSpec) GlobalOptions(w bench.Workload) (global.Options, error) {
	if w.Invariant == nil {
		return global.Options{}, fmt.Errorf("workload %s has no system invariant; the global checker needs one", w.Name)
	}
	opt := global.Options{
		Invariant:      w.Invariant,
		Strategy:       global.DFS,
		MaxDepth:       j.Depth,
		Budget:         j.budget(),
		StopAtFirstBug: j.First,
	}
	if j.Checker == "bfs" {
		opt.Strategy = global.BFS
	}
	return opt, nil
}

// BugSummary is one confirmed bug in a job result.
type BugSummary struct {
	Invariant string `json:"invariant"`
	Detail    string `json:"detail"`
	Depth     int    `json:"depth"`
}

// JobResult summarizes a finished checker run. It is stored verbatim (as
// JSON) in the run's store bucket, so a restarted daemon can report
// finished jobs without re-running them.
type JobResult struct {
	Complete   bool           `json:"complete"`
	StopReason string         `json:"stop_reason"`
	Bugs       []BugSummary   `json:"bugs,omitempty"`
	Stats      stats.Counters `json:"stats"`
	// Resumed is true when the run was verified against stored checkpoints.
	Resumed bool `json:"resumed,omitempty"`
	// Invalidated carries the reason the job's previous checkpoints were
	// discarded before this (fresh) run, when they were.
	Invalidated string `json:"invalidated,omitempty"`
}

// Job states.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// JobStatus is the externally visible state of one job.
type JobStatus struct {
	ID    string  `json:"id"`
	Spec  JobSpec `json:"spec"`
	State string  `json:"state"`
	// RunID is the store bucket the job checkpoints into (differs from ID
	// after a divergence re-run).
	RunID string `json:"run_id,omitempty"`
	// CheckpointRounds counts the round checkpoints persisted so far.
	CheckpointRounds int        `json:"checkpoint_rounds,omitempty"`
	Result           *JobResult `json:"result,omitempty"`
	Error            string     `json:"error,omitempty"`
}

// job is the internal job record.
type job struct {
	status JobStatus
	cancel context.CancelFunc
	// resume marks a job recovered from the store at startup.
	resume bool
}

// Config parameterizes a Service.
type Config struct {
	// Store is the checkpoint store; required.
	Store *store.Store
	// CodeHash overrides the binary fingerprint (store.CodeHash()); zero
	// means compute it. Tests use a fixed value to simulate rebuilds.
	CodeHash uint64
	// Defaults fills unset JobSpec fields at submission time: Workload,
	// Checker, Reduce, Workers, Budget and Depth each apply when
	// the submitted spec leaves them zero. cmd/lmc passes its run-mode
	// flag values here, so both modes share one configuration surface.
	Defaults JobSpec
	// Observer receives the run events of every job (e.g. the expvar
	// observer, so /debug/vars shows live counters); nil disables.
	Observer obs.Observer
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
}

// Service is the resident job queue. Create with New, recover stored jobs
// with Recover, then drive with Run; Submit/Jobs/Job/Cancel are safe from
// any goroutine (the HTTP layer calls them).
type Service struct {
	st       *store.Store
	codeHash uint64
	defaults JobSpec
	observer obs.Observer
	logf     func(string, ...any)

	mu    sync.Mutex
	jobs  map[string]*job
	order []string
	// queue is the FIFO of job ids waiting for Run; wake (one slot) tells Run
	// it became non-empty. Nothing blocks while holding mu.
	queue  []string
	wake   chan struct{}
	nextID int
}

// maxQueued bounds the jobs Submit lets wait for Run; recovered jobs are
// always admitted.
const maxQueued = 1024

var errQueueFull = fmt.Errorf("service: %d jobs already queued", maxQueued)

// New builds a Service over the given store.
func New(cfg Config) *Service {
	if cfg.CodeHash == 0 {
		cfg.CodeHash = store.CodeHash()
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Service{
		st:       cfg.Store,
		codeHash: cfg.CodeHash,
		defaults: cfg.Defaults,
		observer: cfg.Observer,
		logf:     logf,
		jobs:     make(map[string]*job),
		wake:     make(chan struct{}, 1),
	}
}

// applyDefaults fills unset spec fields from the service defaults.
func (s *Service) applyDefaults(spec *JobSpec) {
	d := s.defaults
	if spec.Workload == "" {
		spec.Workload = d.Workload
	}
	if spec.Checker == "" {
		spec.Checker = d.Checker
	}
	if spec.Reduce == "" {
		spec.Reduce = d.Reduce
	}
	if spec.Workers == 0 {
		spec.Workers = d.Workers
	}
	if spec.Budget == "" {
		spec.Budget = d.Budget
	}
	if spec.Depth == 0 {
		spec.Depth = d.Depth
	}
}

// Recover scans the store for runs left behind by a previous daemon and
// re-enqueues the unfinished ones: matching code hash and options
// signature → resume from the stored rounds; mismatch → invalidate and run
// fresh. Finished runs surface as done jobs with their stored results.
// Call once, before Run.
func (s *Service) Recover() {
	for _, meta := range s.st.Runs() {
		var spec JobSpec
		if err := json.Unmarshal([]byte(meta.Spec), &spec); err != nil {
			s.logf("recover: run %s has an unreadable spec; ignoring", meta.ID)
			continue
		}
		switch {
		case meta.Done:
			var res JobResult
			st := JobStatus{State: StateDone, Result: &res, CheckpointRounds: meta.Rounds}
			if err := json.Unmarshal([]byte(meta.Detail), &res); err != nil {
				s.logf("recover: finished run %s has an unreadable stored result: %v", meta.ID, err)
				st.State, st.Result = StateFailed, nil
				st.Error = fmt.Sprintf("unreadable stored result: %v", err)
			}
			s.adopt(spec, meta.ID, st)
		case meta.Invalid:
			// A bucket invalidated by a previous daemon whose replacement
			// run never finished (or never started): run fresh.
			s.logf("recover: %s was invalidated (%s); running fresh", meta.ID, meta.Detail)
			s.enqueueRecovered(spec, meta.ID, false, meta.Detail)
		case meta.CodeHash != s.codeHash:
			s.st.InvalidateRun(meta.ID, "checker binary changed")
			s.logf("recover: %s checkpointed under a different binary; running fresh", meta.ID)
			s.enqueueRecovered(spec, meta.ID, false, "checker binary changed")
		case meta.OptionsSig != spec.Sig():
			s.st.InvalidateRun(meta.ID, "options changed")
			s.logf("recover: %s checkpointed under different options; running fresh", meta.ID)
			s.enqueueRecovered(spec, meta.ID, false, "options changed")
		default:
			s.logf("recover: resuming %s from %d stored rounds", meta.ID, meta.Rounds)
			s.enqueueRecovered(spec, meta.ID, true, "")
		}
	}
}

// adopt registers a terminal job without queueing it.
func (s *Service) adopt(spec JobSpec, id string, st JobStatus) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st.ID, st.Spec, st.RunID = id, spec, id
	s.jobs[id] = &job{status: st, cancel: func() {}}
	s.order = append(s.order, id)
}

// enqueueRecovered queues a job recovered from bucket id. When resume is
// false the bucket was invalidated for the given reason and the job will
// checkpoint into a fresh bucket.
func (s *Service) enqueueRecovered(spec JobSpec, id string, resume bool, invalidated string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := &job{
		status: JobStatus{ID: id, Spec: spec, State: StateQueued, RunID: id, Error: invalidated},
		cancel: func() {},
		resume: resume,
	}
	// Error doubles as the invalidation note until the run finishes.
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.enqueue(id)
}

// enqueue appends id to the FIFO and wakes Run. Callers hold s.mu.
func (s *Service) enqueue(id string) {
	s.queue = append(s.queue, id)
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// Submit validates and enqueues a job, filling unset spec fields from the
// service defaults first. It never blocks: beyond maxQueued waiting jobs it
// refuses (the HTTP layer answers 503).
func (s *Service) Submit(spec JobSpec) (JobStatus, error) {
	s.applyDefaults(&spec)
	if err := spec.validate(); err != nil {
		return JobStatus{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.queue) >= maxQueued {
		return JobStatus{}, errQueueFull
	}
	if spec.ID == "" {
		for {
			s.nextID++
			spec.ID = "job-" + strconv.Itoa(s.nextID)
			if _, taken := s.jobs[spec.ID]; !taken {
				break
			}
		}
	} else if _, taken := s.jobs[spec.ID]; taken {
		return JobStatus{}, fmt.Errorf("service: job %q already exists", spec.ID)
	}
	j := &job{
		status: JobStatus{ID: spec.ID, Spec: spec, State: StateQueued},
		cancel: func() {},
	}
	s.jobs[spec.ID] = j
	s.order = append(s.order, spec.ID)
	s.enqueue(spec.ID)
	return j.status, nil
}

// Jobs lists every job in submission order.
func (s *Service) Jobs() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].status)
	}
	return out
}

// Job returns one job's status.
func (s *Service) Job(id string) (JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return j.status, true
}

// Cancel stops a running job at its next round barrier (keeping its
// checkpoints, so a later daemon can resume it), or drops a queued one.
func (s *Service) Cancel(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return false
	}
	switch j.status.State {
	case StateQueued:
		j.status.State = StateCancelled
	case StateRunning:
		j.cancel()
	default:
		return false
	}
	return true
}

// Run executes queued jobs sequentially until ctx is cancelled. It is the
// daemon's main loop; run it on one goroutine.
func (s *Service) Run(ctx context.Context) {
	for ctx.Err() == nil {
		s.mu.Lock()
		if len(s.queue) == 0 {
			s.mu.Unlock()
			select {
			case <-ctx.Done():
			case <-s.wake:
			}
			continue
		}
		id := s.queue[0]
		s.queue = s.queue[1:]
		j, ok := s.jobs[id]
		if !ok || j.status.State != StateQueued {
			s.mu.Unlock()
			continue
		}
		jctx, cancel := context.WithCancel(ctx)
		j.cancel = cancel
		j.status.State = StateRunning
		status := j.status
		resume := j.resume
		s.mu.Unlock()

		res, err := s.execute(jctx, &status, resume)
		cancel()

		s.mu.Lock()
		// The sink mirrored checkpoint progress into the live status
		// while execute ran; keep it over the stale snapshot.
		status.CheckpointRounds = j.status.CheckpointRounds
		j.status = status
		switch {
		case err != nil:
			j.status.State = StateFailed
			j.status.Error = err.Error()
			s.logf("job %s failed: %v", id, err)
		case res.StopReason == obs.StopCancelled.String() && !res.Complete:
			j.status.State = StateCancelled
			j.status.Result = res
			s.logf("job %s cancelled at round barrier", id)
		default:
			j.status.State = StateDone
			j.status.Result = res
			j.status.Error = ""
			s.logf("job %s done: complete=%v bugs=%d", id, res.Complete, len(res.Bugs))
		}
		s.mu.Unlock()
	}
}

// countSink wraps the store sink to mirror checkpoint progress into the
// job status (read by GET /jobs/{id} while the job runs).
type countSink struct {
	next   core.CheckpointSink
	s      *Service
	id     string
	rounds int
}

func (c *countSink) OnRoundCheckpoint(cp core.RoundCheckpoint) error {
	if err := c.next.OnRoundCheckpoint(cp); err != nil {
		return err
	}
	c.rounds++
	n := c.rounds
	c.s.mu.Lock()
	if j, ok := c.s.jobs[c.id]; ok {
		j.status.CheckpointRounds = n
	}
	c.s.mu.Unlock()
	return nil
}

// execute runs one job to completion, handling checkpoint setup, resume,
// and the divergence retry. status is the caller's snapshot; execute
// updates its RunID/CheckpointRounds fields.
func (s *Service) execute(ctx context.Context, status *JobStatus, resume bool) (*JobResult, error) {
	spec := status.Spec
	w, err := bench.Lookup(spec.Workload)
	if err != nil {
		return nil, err
	}
	start, err := w.StartState()
	if err != nil {
		return nil, err
	}

	if spec.Checker == "global" || spec.Checker == "bfs" {
		return s.executeGlobal(ctx, spec, w, start)
	}

	opt, err := spec.CoreOptions(w)
	if err != nil {
		return nil, err
	}
	opt.Observer = s.observer

	invalidated := status.Error // recovery stored the invalidation note here
	runID := status.RunID
	if runID == "" {
		runID = status.ID
	}
	// An invalidated bucket rejects appends; a fresh run after an
	// invalidation checkpoints into a new one.
	if meta, ok := s.st.Run(runID); ok && meta.Invalid {
		runID = s.freeRunID(status.ID)
	}
	res, resumed, err := s.runLocal(ctx, spec, w, start, opt, runID, resume)
	if err != nil {
		return nil, err
	}
	if res.StopReason == obs.StopResumeDiverged {
		// The stored rounds lied (stale or corrupt despite matching
		// hashes). Invalidate and run once more, fresh, in a new bucket.
		reason := "resume diverged from stored checkpoint"
		s.logf("job %s: %s; invalidating %s and re-running fresh", status.ID, reason, runID)
		s.st.InvalidateRun(runID, reason)
		invalidated = reason
		runID = s.freeRunID(status.ID)
		res, resumed, err = s.runLocal(ctx, spec, w, start, opt, runID, false)
		if err != nil {
			return nil, err
		}
	}
	status.RunID = runID
	s.mu.Lock()
	if j, ok := s.jobs[status.ID]; ok {
		j.status.RunID = runID
	}
	s.mu.Unlock()

	out := &JobResult{
		Complete:    res.Complete,
		StopReason:  res.StopReason.String(),
		Stats:       res.Stats,
		Resumed:     resumed,
		Invalidated: invalidated,
	}
	for _, b := range res.Bugs {
		out.Bugs = append(out.Bugs, BugSummary{
			Invariant: b.Violation.Invariant,
			Detail:    b.Violation.Detail,
			Depth:     b.Depth,
		})
	}
	// A cancelled (incomplete) run keeps its bucket open so the next
	// daemon resumes it; a finished one records its result durably.
	if res.Complete || res.StopReason != obs.StopCancelled {
		detail, _ := json.Marshal(out)
		s.st.FinishRun(runID, string(detail))
	}
	return out, nil
}

// runLocal performs one LMC run against bucket runID, creating it if
// needed and attaching sink and (when asked) resume source.
func (s *Service) runLocal(ctx context.Context, spec JobSpec, w bench.Workload,
	start model.SystemState, opt core.Options, runID string, resume bool) (*core.Result, bool, error) {

	if _, ok := s.st.Run(runID); !ok {
		specJSON, _ := json.Marshal(spec)
		if err := s.st.CreateRun(runID, string(specJSON), s.codeHash, spec.Sig()); err != nil {
			return nil, false, err
		}
	}
	opt.Checkpoint = &countSink{next: s.st.Sink(runID), s: s, id: spec.ID}

	resumed := false
	if resume {
		if src := s.st.Resume(runID); src != nil {
			opt.Resume = src
			resumed = true
		}
	}

	res, err := core.CheckContext(ctx, w.Machine, start, opt)
	return res, resumed, err
}

func (s *Service) executeGlobal(ctx context.Context, spec JobSpec, w bench.Workload,
	start model.SystemState) (*JobResult, error) {

	gopt, err := spec.GlobalOptions(w)
	if err != nil {
		return nil, err
	}
	gopt.Observer = s.observer
	res, err := global.CheckContext(ctx, w.Machine, start, gopt)
	if err != nil {
		return nil, err
	}
	out := &JobResult{
		Complete:   res.Complete,
		StopReason: res.StopReason.String(),
		Stats:      res.Stats,
	}
	for _, b := range res.Bugs {
		out.Bugs = append(out.Bugs, BugSummary{
			Invariant: b.Violation.Invariant,
			Detail:    b.Violation.Detail,
			Depth:     len(b.Schedule),
		})
	}
	return out, nil
}

// freeRunID finds an unused store bucket ID derived from id.
func (s *Service) freeRunID(id string) string {
	for n := 2; ; n++ {
		cand := fmt.Sprintf("%s.r%d", id, n)
		if _, taken := s.st.Run(cand); !taken {
			return cand
		}
	}
}
