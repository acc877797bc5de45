// Command lmc runs a model checker over one of the bundled protocol
// workloads and prints the statistics and any confirmed bugs with their
// witness schedules. With -serve it stays resident instead: a daemon that
// accepts a queue of checking jobs over HTTP, checkpoints every completed
// round to a persistent store, and resumes unfinished jobs — bit-for-bit —
// after any restart, SIGKILL included.
//
// Usage:
//
//	lmc -workload paxos                    # LMC-OPT over correct Paxos
//	lmc -workload paxos-bug -v             # rediscover the §5.5 bug
//	lmc -workload 1paxos-bug -checker lmc  # LMC-GEN
//	lmc -workload paxos -checker global    # the B-DFS baseline
//	lmc -list                              # list workloads
//
//	lmc -serve -listen localhost:8080 -store /var/lib/lmc/ckpt.lmcstore
//	curl -X POST localhost:8080/jobs -d '{"workload":"paxos"}'
//	curl localhost:8080/jobs/job-1         # status, checkpoint progress, result
//
// The serve listener also exposes /debug/pprof and /debug/vars (expvar;
// live counters of the running job under the "lmc" map), so one port
// carries the job API and the usual diagnostics.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof and pulls in /debug/vars
	"os"
	"time"

	"lmc/internal/bench"
	"lmc/internal/core"
	"lmc/internal/mc/global"
	"lmc/internal/obs"
	"lmc/internal/service"
	"lmc/internal/store"
)

// checkConfig is the single flag surface shared by run and serve modes:
// run mode executes one job built from it, serve mode uses it as the
// default JobSpec fields for submitted jobs. Keeping both modes on one
// struct keeps the flags from drifting apart.
type checkConfig struct {
	workload string
	checker  string
	reduce   string
	budget   time.Duration
	depth    int
	first    bool
	deepen   int
	maxBound int
	workers  int
	verbose  bool
}

func (c *checkConfig) registerFlags() {
	flag.StringVar(&c.workload, "workload", "paxos", "workload name (see -list)")
	flag.StringVar(&c.checker, "checker", "lmc-opt", "checker: lmc-opt, lmc, global, bfs")
	flag.StringVar(&c.reduce, "reduce", "",
		"state-space reduction for LMC-GEN: sym, all or none (default off); por is accepted and ignored (the partial-order reduction lost on every workload and was deleted)")
	flag.DurationVar(&c.budget, "budget", 30*time.Second, "wall-clock budget per job")
	flag.IntVar(&c.depth, "depth", 0, "depth bound (0 = unbounded)")
	flag.BoolVar(&c.first, "first", true,
		"stop at the first confirmed bug (run mode only: a served job sets \"first\" itself)")
	flag.IntVar(&c.deepen, "deepen", 0, "iterative local-event bound deepening step (LMC; run mode only)")
	flag.IntVar(&c.maxBound, "maxbound", 4, "maximum local-event bound when deepening (LMC; run mode only)")
	flag.IntVar(&c.workers, "workers", 0,
		"in-process worker pool per job (0 = one per CPU, negative = sequential)")
	flag.BoolVar(&c.verbose, "v", false, "print witness schedules (run mode)")
}

// jobSpec maps the shared config onto a service job spec: the job run mode
// executes, and serve mode's defaults for submitted jobs. First is left out
// because a bool has no "unset" for a default to fill; run mode sets it on
// top, as it does deepen/maxbound.
func (c *checkConfig) jobSpec() service.JobSpec {
	spec := service.JobSpec{
		Workload: c.workload,
		Checker:  c.checker,
		Reduce:   c.reduce,
		Workers:  c.workers,
		Depth:    c.depth,
	}
	if c.budget > 0 {
		spec.Budget = c.budget.String()
	}
	return spec
}

func main() {
	var cfg checkConfig
	cfg.registerFlags()
	list := flag.Bool("list", false, "list workloads and exit")
	serve := flag.Bool("serve", false, "run as a resident checking service instead of one job")
	listen := flag.String("listen", "localhost:8080", "serve mode: HTTP listen address for jobs, expvar and pprof")
	storePath := flag.String("store", "lmc.lmcstore", "serve mode: checkpoint store file")
	flag.Parse()

	if *list {
		for _, w := range bench.Workloads() {
			fmt.Printf("%-14s %s\n", w.Name, w.Description)
		}
		return
	}

	if *serve {
		if err := runServe(cfg, *listen, *storePath); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if err := runOnce(cfg); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// runOnce is the classic one-shot mode: check one workload and print.
func runOnce(cfg checkConfig) error {
	w, err := bench.Lookup(cfg.workload)
	if err != nil {
		return err
	}
	start, err := w.StartState()
	if err != nil {
		return fmt.Errorf("building start state: %w", err)
	}

	fmt.Printf("workload %s (%s), checker %s\n", w.Name, w.Machine.Name(), cfg.checker)

	spec := cfg.jobSpec()
	spec.First = cfg.first
	switch cfg.checker {
	case "global", "bfs":
		gopt, err := spec.GlobalOptions(w)
		if err != nil {
			return err
		}
		res := global.Check(w.Machine, start, gopt)
		fmt.Println(res.Stats.String())
		fmt.Printf("complete=%v bugs=%d\n", res.Complete, len(res.Bugs))
		for _, b := range res.Bugs {
			fmt.Printf("BUG: %v\n", b.Violation)
			if cfg.verbose {
				fmt.Print(b.Schedule.String())
			}
		}
	case "lmc", "lmc-opt":
		opt, err := spec.CoreOptions(w)
		if err != nil {
			return err
		}
		opt.LocalBoundStep, opt.MaxLocalBound = cfg.deepen, cfg.maxBound
		res := core.Check(w.Machine, start, opt)
		fmt.Println(res.Stats.String())
		fmt.Printf("complete=%v bugs=%d\n", res.Complete, len(res.Bugs))
		for _, b := range res.Bugs {
			fmt.Printf("BUG: %v\n", b.Violation)
			if cfg.verbose {
				fmt.Print(b.Schedule.String())
			}
		}
	default:
		return fmt.Errorf("unknown checker %q", cfg.checker)
	}
	return nil
}

// runServe is daemon mode: open (or recover) the checkpoint store, resume
// whatever a previous daemon left unfinished, and serve the job API plus
// expvar/pprof on one listener.
func runServe(cfg checkConfig, listen, storePath string) error {
	st, err := store.Open(storePath)
	if err != nil {
		return fmt.Errorf("opening checkpoint store: %w", err)
	}
	defer st.Close()

	svc := service.New(service.Config{
		Store:    st,
		Defaults: cfg.jobSpec(),
		Observer: obs.NewExpvarObserver("lmc"),
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "lmc serve: "+format+"\n", args...)
		},
	})
	svc.Recover()

	// The job API shares the DefaultServeMux listener with the /debug/
	// handlers net/http/pprof registered at init.
	h := svc.Handler()
	for _, pattern := range []string{"/jobs", "/jobs/", "/runs", "/workloads"} {
		http.Handle(pattern, h)
	}

	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return fmt.Errorf("listening on %s: %w", listen, err)
	}
	// The resolved address line is load-bearing: scripts (and the serve
	// test) pass -listen with port 0 and scrape the port from it.
	fmt.Printf("lmc serve: store %s, listening on http://%s/\n", st.Path(), ln.Addr())

	go func() {
		if err := http.Serve(ln, nil); err != nil {
			fmt.Fprintln(os.Stderr, "lmc serve: http:", err)
			os.Exit(1)
		}
	}()
	svc.Run(context.Background())
	return nil
}
