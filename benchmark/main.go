// Command benchmark is the repository's benchmark: six seconds-long
// workloads taken from the paper's evaluation, each checked against pinned
// verdicts, reporting time to verdict, CPU, peak memory and set-up time from
// untraced checks, and one number per layer from a separate traced check.
// See README.md in this directory.
//
//	bash benchmark/run.sh                                   # every workload
//	bash benchmark/run.sh -workload bughunt -seed 2         # one workload, one seed
//	bash benchmark/run.sh -workload bughunt -trace 1        # its traced run
//	bash benchmark/run.sh -repeat-check                     # run-to-run agreement
//
// Linux only: it reads rusage the Linux way and ties daemons to their
// parent with PR_SET_PDEATHSIG.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"lmc/internal/shard"
)

// harnessConfig is the command line of the harness.
type harnessConfig struct {
	root     string
	workload string
	seed     int64
	seconds  float64
	traced   bool
	tiny     bool
	out      string
}

// setupSamples is how many times a run sets the workload up; setup_s is the
// median, so one slow process start does not decide it.
const setupSamples = 15

// childTimeout bounds one child process, set-up and every check included.
const childTimeout = 170 * time.Second

func main() {
	var (
		cfg         harnessConfig
		child       = flag.String("child", "", "internal: run as the measuring child of the named workload")
		shardWorker = flag.Bool("shard-worker", false, "internal: serve as a shard worker on stdin/stdout")
		setupOnly   = flag.Bool("setup-only", false, "internal: child exits once set up")
		lmcBin      = flag.String("lmc", "", "internal: path of the built lmc binary")
		tmpDir      = flag.String("tmp", "", "internal: the child's temp directory")
		trace       = flag.Int("trace", 0, "1 runs the traced check and reports the per-layer metrics; 0 the end-to-end metrics")
		scale       = flag.String("scale", "full", "full, or tiny for the smoke test's sizes")
		repeatCheck = flag.Bool("repeat-check", false, "run the untraced suite twice and compare the two against the bounds")
	)
	flag.StringVar(&cfg.root, "root", "", "repository root (default: found from the working directory)")
	flag.StringVar(&cfg.workload, "workload", "", "run only this workload (default: all)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the proposed value, burst order and probe samples")
	flag.Float64Var(&cfg.seconds, "seconds", 22, "how long one workload measures; at least one whole check runs")
	flag.StringVar(&cfg.out, "out", "", "traced runs: span file (default <root>/.bench_build/spans-<workload>.json)")
	flag.Parse()
	cfg.traced = *trace != 0
	cfg.tiny = *scale == "tiny"

	if *shardWorker {
		// Stdout belongs to the wire protocol from here on.
		if err := shard.RunWorker(resolveShard); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark shard worker:", err)
			os.Exit(1)
		}
		return
	}
	if *child != "" {
		err := runChild(childConfig{
			workload: *child, seed: cfg.seed, seconds: cfg.seconds, traced: cfg.traced,
			tiny: cfg.tiny, setupOnly: *setupOnly, lmcBin: *lmcBin, tmpDir: *tmpDir,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark child:", err)
			os.Exit(1)
		}
		return
	}

	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "benchmark: unexpected arguments:", flag.Args())
		os.Exit(2)
	}
	if err := findRoot(&cfg); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	h, err := newHarness(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	ok := false
	if *repeatCheck {
		ok = h.repeatCheck()
	} else {
		ok = h.runSuite()
	}
	h.cleanup()
	if !ok {
		os.Exit(1)
	}
}

// findRoot locates the repository root: the directory holding cmd/lmc and
// this benchmark.
func findRoot(cfg *harnessConfig) error {
	cands := []string{cfg.root}
	if cfg.root == "" {
		cands = []string{".", ".."}
	}
	for _, c := range cands {
		if _, err := os.Stat(filepath.Join(c, "cmd", "lmc", "main.go")); err == nil {
			abs, err := filepath.Abs(c)
			cfg.root = abs
			return err
		}
	}
	return fmt.Errorf("no repository root (cmd/lmc) at %q; pass -root", cands)
}

// harness runs children and turns their reports into metrics.
type harness struct {
	cfg    harnessConfig
	self   string
	build  string // <root>/.bench_build
	tmp    string // this run's temp directory, removed on exit
	lmcBin string
	procs  int // GOMAXPROCS of in-process children
}

func newHarness(cfg harnessConfig) (*harness, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	h := &harness{cfg: cfg, self: self, build: filepath.Join(cfg.root, ".bench_build")}
	if err := os.MkdirAll(filepath.Join(h.build, "tmp"), 0o755); err != nil {
		return nil, err
	}
	if h.tmp, err = os.MkdirTemp(filepath.Join(h.build, "tmp"), "run-"); err != nil {
		return nil, err
	}
	h.procs = min(runtime.NumCPU(), 2)
	return h, nil
}

func (h *harness) cleanup() { os.RemoveAll(h.tmp) }

// buildLMC builds cmd/lmc once per run. The time is printed but is no
// metric: it measures the compile cache, not the checker.
func (h *harness) buildLMC() error {
	if h.lmcBin != "" {
		return nil
	}
	bin := filepath.Join(h.build, "lmc")
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/lmc")
	cmd.Dir = h.cfg.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building cmd/lmc: %v\n%s", err, out)
	}
	fmt.Printf("build_s %.3f s (go build ./cmd/lmc; not a metric)\n", time.Since(t0).Seconds())
	h.lmcBin = bin
	return nil
}

// childResult is one child run as the harness saw it from outside.
type childResult struct {
	setupS    float64 // process start → the child's ready line
	ownRSSMB  float64 // the child's own peak RSS, from its exit status
	rep       *report
	reportErr error
}

// runChildProc starts one child, times its set-up from outside, and reads
// its report. A child that overruns childTimeout is killed.
func (h *harness) runChildProc(w workload, traced, setupOnly bool) childResult {
	var res childResult
	tmp, err := os.MkdirTemp(h.tmp, w.name+"-")
	if err != nil {
		res.reportErr = err
		return res
	}
	defer os.RemoveAll(tmp)
	args := []string{
		"-child", w.name, "-seed", strconv.FormatInt(h.cfg.seed, 10),
		"-seconds", strconv.FormatFloat(h.cfg.seconds, 'g', -1, 64),
		"-lmc", h.lmcBin, "-tmp", tmp,
	}
	if traced {
		args = append(args, "-trace", "1")
	}
	if h.cfg.tiny {
		args = append(args, "-scale", "tiny")
	}
	if setupOnly {
		args = append(args, "-setup-only")
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, h.self, args...)
	procs := h.procs
	if w.name == "shard2-explore" {
		procs = 1 // one per shard process
	}
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.WaitDelay = 2 * time.Second
	out, err := cmd.StdoutPipe()
	if err != nil {
		res.reportErr = err
		return res
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		res.reportErr = err
		return res
	}
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if res.setupS == 0 && strings.HasPrefix(string(line), `{"ready"`) {
			res.setupS = time.Since(t0).Seconds()
			continue
		}
		var rep report
		if err := json.Unmarshal(line, &rep); err != nil {
			res.reportErr = fmt.Errorf("unreadable child line: %v", err)
			continue
		}
		res.rep = &rep
	}
	werr := cmd.Wait()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.ownRSSMB = float64(ru.Maxrss) / 1024
	}
	switch {
	case ctx.Err() != nil:
		res.reportErr = fmt.Errorf("child killed after %v", childTimeout)
	case werr != nil:
		res.reportErr = fmt.Errorf("child: %v", werr)
	case res.setupS == 0:
		res.reportErr = errors.New("child never reported ready")
	case !setupOnly && res.rep == nil && res.reportErr == nil:
		res.reportErr = errors.New("child printed no report")
	}
	return res
}

// outcome is one workload's run, ready to print.
type outcome struct {
	workload  string
	attempted int
	failed    int
	failures  []string
	samples   int
	// verdictS are the run's verdict times, printed beside their mean.
	verdictS []float64
	metrics  map[string]float64
}

// runWorkload measures one workload: setupSamples set-ups (the measuring
// child's among them), the checks, the oracle.
func (h *harness) runWorkload(w workload, traced bool) outcome {
	o := outcome{workload: w.name, metrics: make(map[string]float64)}
	if w.build == nil {
		if err := h.buildLMC(); err != nil {
			o.attempted, o.failed = 1, 1
			o.failures = []string{err.Error()}
			return o
		}
	}
	var setups []float64
	for i := 0; i < setupSamples-1; i++ {
		r := h.runChildProc(w, false, true)
		if r.reportErr != nil {
			o.attempted++
			o.failed++
			o.failures = append(o.failures, "set-up: "+r.reportErr.Error())
			continue
		}
		setups = append(setups, r.setupS)
	}
	r := h.runChildProc(w, traced, false)
	if r.reportErr != nil {
		o.attempted++
		o.failed++
		o.failures = append(o.failures, r.reportErr.Error())
		return o
	}
	setups = append(setups, r.setupS)

	rep := r.rep
	var verdictS, cpuS []float64
	for i, c := range rep.Checks {
		o.attempted++
		if len(c.Failures) > 0 {
			o.failed++
			for _, f := range c.Failures {
				o.failures = append(o.failures, fmt.Sprintf("check %d: %s", i+1, f))
			}
			continue
		}
		verdictS = append(verdictS, c.VerdictS)
		cpuS = append(cpuS, c.CPUS)
	}
	if len(rep.Failures) > 0 {
		// A failure outside any one check (the traced check, a resumed job,
		// the burst) is one more failed operation.
		o.attempted++
		o.failed++
		o.failures = append(o.failures, rep.Failures...)
	}
	if len(rep.Checks) == 0 {
		o.attempted++
		o.failed++
		o.failures = append(o.failures, "the child ran no check")
	}
	o.samples, o.verdictS = len(verdictS), verdictS

	if traced {
		for _, m := range perLayer {
			o.metrics[m.Name] = rep.Layers[m.Name]
		}
		h.writeSpans(w, rep.Spans)
		return o
	}
	// The process that checks: the child itself plus its shard worker, or
	// the daemon a serve-resume child only drives.
	rss := rep.ChildPeakRSSMB
	if w.build != nil {
		rss += r.ownRSSMB
	}
	// Means, not medians: the host runs at two speeds and stays at one for
	// seconds (README, "Seed numbers"), so a run's checks cluster at two
	// times. Their median jumps from one cluster to the other as the share
	// of slow checks crosses a half; their mean moves with the share.
	o.metrics["verdict_s"] = mean(verdictS)
	o.metrics["cpu_s"] = mean(cpuS)
	o.metrics["peak_rss_mb"] = rss
	o.metrics["setup_s"] = median(setups)
	return o
}

// writeSpans flushes the traced check's span list.
func (h *harness) writeSpans(w workload, spans []span) {
	path := h.cfg.out
	if path == "" {
		path = filepath.Join(h.build, "spans-"+w.name+".json")
	}
	doc := map[string]any{
		"workload": w.name, "seed": h.cfg.seed, "go": runtime.Version(),
		"commit": h.commit(), "spans": spans,
	}
	b, err := json.MarshalIndent(doc, "", " ")
	if err == nil {
		err = os.WriteFile(path, b, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: writing spans:", err)
		return
	}
	fmt.Printf("spans %d written to %s\n", len(spans), path)
}

// commit names the measured commit when the checkout is a git repository.
func (h *harness) commit() string {
	cmd := exec.Command("git", "-C", h.cfg.root, "rev-parse", "--short", "HEAD")
	// Never look above the checkout for a repository.
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(h.cfg.root))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func (h *harness) selected() ([]workload, error) {
	if h.cfg.workload == "" {
		return workloads, nil
	}
	w, err := findWorkload(h.cfg.workload)
	return []workload{w}, err
}

// runSuite runs the selected workloads and prints every metric by name with
// its unit; a single workload's result follows as one JSON object on the
// last line.
func (h *harness) runSuite() bool {
	ws, err := h.selected()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return false
	}
	fmt.Printf("env go=%s commit=%s nproc=%d GOMAXPROCS=%d (shard processes and daemon: 1) engine Workers=-1 seed=%d\n",
		runtime.Version(), h.commit(), runtime.NumCPU(), h.procs, h.cfg.seed)
	defs := endToEnd
	if h.cfg.traced {
		defs = perLayer
	}
	ok := true
	var last outcome
	for _, w := range ws {
		o := h.runWorkload(w, h.cfg.traced)
		last = o
		fmt.Printf("workload %s: %d checks attempted, %d failed, failed_share %.3f, %d samples\n",
			o.workload, o.attempted, o.failed, float64(o.failed)/float64(o.attempted), o.samples)
		for _, f := range o.failures {
			fmt.Printf("  FAILED %s\n", f)
		}
		if n := len(o.verdictS); n > 0 {
			s := append([]float64(nil), o.verdictS...)
			sort.Float64s(s)
			fmt.Printf("  verdict times: min %.4g, median %.4g, max %.4g s\n", s[0], median(s), s[n-1])
		}
		for _, m := range defs {
			fmt.Printf("  %-34s %16.6g %s\n", m.Name, o.metrics[m.Name], m.Unit)
		}
		if o.failed > 0 {
			ok = false
		}
	}
	if len(ws) == 1 {
		printResult(last, defs)
	}
	return ok
}

// printResult prints the one-line JSON result of a single-workload run.
func printResult(o outcome, defs []metricDef) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, m := range defs {
		metrics[m.Name] = value{o.metrics[m.Name], m.Unit}
	}
	b, err := json.Marshal(map[string]any{
		"correct": o.failed == 0, "attempted": o.attempted, "failed": o.failed, "metrics": metrics,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(string(b))
}

// repeatCheck runs every selected workload untraced twice, back to back,
// and reports for each end-to-end metric both values, their relative
// difference, and whether the second is inside the metric's bound of the
// first. It is how "two runs of the same code agree" is demonstrated.
func (h *harness) repeatCheck() bool {
	ws, err := h.selected()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return false
	}
	ok := true
	fmt.Printf("%-16s %-12s %12s %12s %9s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
	for _, w := range ws {
		a := h.runWorkload(w, false)
		b := h.runWorkload(w, false)
		for _, o := range []outcome{a, b} {
			for _, f := range o.failures {
				fmt.Printf("  FAILED %s: %s\n", w.name, f)
				ok = false
			}
		}
		for _, m := range endToEnd {
			x, y := a.metrics[m.Name], b.metrics[m.Name]
			diff := ratio(y-x, x)
			verdict := "ok"
			if diff > m.Bound || diff < -m.Bound {
				verdict = "OUTSIDE"
				ok = false
			}
			fmt.Printf("%-16s %-12s %12.4f %12.4f %+8.1f%% %6.0f%% %s\n",
				w.name, m.Name, x, y, 100*diff, 100*m.Bound, verdict)
		}
	}
	return ok
}
