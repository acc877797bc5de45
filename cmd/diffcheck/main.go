// Command diffcheck cross-validates the local model checker against the
// global B-DFS baseline on randomized scenarios. Every disagreement is
// shrunk to a minimal scenario and written out as a reproducible artifact
// (seed + scenario JSON + counterexample schedules).
//
// Usage:
//
//	diffcheck -seed 42 -n 100              # one deterministic batch
//	diffcheck -soak 10m                    # randomized soak run
//	diffcheck -repro artifact.json         # re-run a saved disagreement
//	diffcheck -seed 42 -n 100 -v           # also print per-scenario results
//
// The process exits 0 when every scenario agrees, 1 on any disagreement,
// and 2 on usage errors. The seed is always printed, so any run can be
// reproduced bit-for-bit.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof and pulls in /debug/vars
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"lmc/internal/diffcheck"
	"lmc/internal/obs"
)

func main() {
	seed := flag.Int64("seed", 1, "scenario generator seed")
	n := flag.Int("n", 100, "number of scenarios per batch")
	actors := flag.Int("actors", 0, "adapter-backed (actorcheck) scenarios appended to each batch")
	soak := flag.Duration("soak", 0, "keep running fresh batches (seed, seed+1, ...) for this long")
	repro := flag.String("repro", "", "re-run the scenario in a saved artifact and exit")
	out := flag.String("out", ".", "directory for disagreement artifacts")
	budget := flag.Duration("budget", 0, "per-checker budget (0 = default)")
	workers := flag.Int("workers", 0, "concurrent scenarios per batch (0 = GOMAXPROCS)")
	verbose := flag.Bool("v", false, "print every scenario verdict")
	progress := flag.Bool("progress", false,
		"log checker run events to stderr (streams from concurrent scenarios interleave; combine with -workers 1 for a linear log)")
	pprofAddr := flag.String("pprof", "",
		"serve net/http/pprof and expvar on this address (e.g. localhost:6060); live counters appear under /debug/vars key \"diffcheck\"")
	flag.Parse()

	tun := diffcheck.Tuning{Budget: *budget}
	if *progress {
		tun.Observer = obs.NewLogObserver(slog.New(slog.NewTextHandler(os.Stderr, nil)))
	}
	if *pprofAddr != "" {
		// The expvar observer reflects whichever checker run most recently
		// heartbeated or finished — a liveness signal for long soaks.
		tun.Observer = obs.Multi(tun.Observer, obs.NewExpvarObserver("diffcheck"))
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "diffcheck: pprof server:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "diffcheck: serving pprof+expvar on http://%s/debug/\n", *pprofAddr)
	}

	if *repro != "" {
		os.Exit(reproduce(*repro, tun, *verbose))
	}

	disagreements := 0
	batches := 0
	deadline := time.Now().Add(*soak)
	for s := *seed; ; s++ {
		disagreements += runBatch(s, *n, *actors, tun, *out, *workers, *verbose)
		batches++
		if *soak == 0 || time.Now().After(deadline) {
			break
		}
	}
	if disagreements > 0 {
		fmt.Printf("FAIL: %d disagreement(s) across %d batch(es)\n", disagreements, batches)
		os.Exit(1)
	}
	fmt.Printf("ok: %d batch(es) of %d scenarios, no disagreements\n", batches, *n)
}

// runBatch checks one deterministic corpus and returns the disagreement
// count. Each disagreement is shrunk and written to an artifact file.
//
// Scenarios are independent, so the cross-validation runs on a worker pool;
// reporting, shrinking and artifact writes then happen on this goroutine in
// scenario-index order, so the output and the artifact files are identical
// to a sequential run.
func runBatch(seed int64, n, actors int, tun diffcheck.Tuning, outDir string, workers int, verbose bool) int {
	fmt.Printf("batch seed=%d n=%d actors=%d\n", seed, n, actors)
	corpus := diffcheck.Corpus(seed, n)
	if actors > 0 {
		// Appended after the frozen main corpus so indices 0..n-1 keep
		// meaning the same scenarios with or without the flag.
		corpus = append(corpus, diffcheck.ActorCorpus(seed, actors)...)
	}

	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(corpus) {
		workers = len(corpus)
	}
	type outcome struct {
		verdict *diffcheck.Verdict
		err     error
	}
	outcomes := make([]outcome, len(corpus))
	next := make(chan int, len(corpus))
	for i := range corpus {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				v, err := diffcheck.Run(corpus[i], tun)
				outcomes[i] = outcome{verdict: v, err: err}
			}
		}()
	}
	wg.Wait()

	bad := 0
	for i, sc := range corpus {
		v, err := outcomes[i].verdict, outcomes[i].err
		if err != nil {
			fmt.Fprintf(os.Stderr, "seed=%d index=%d: %v\n", seed, i, err)
			bad++
			continue
		}
		if verbose {
			fmt.Printf("  %3d %-40s global(bugs=%d complete=%v) gen(bugs=%d complete=%v) agree=%v\n",
				i, sc.Name(), v.Global.Bugs, v.Global.Complete, v.GEN.Bugs, v.GEN.Complete, v.Agree())
		}
		if v.Agree() {
			continue
		}
		bad++
		fmt.Printf("DISAGREEMENT seed=%d index=%d %s\n", seed, i, sc.Name())
		for _, d := range v.Disagreements {
			fmt.Printf("  %s\n", d)
		}
		min := diffcheck.Shrink(sc, func(c diffcheck.Scenario) bool {
			mv, merr := diffcheck.Run(c, tun)
			return merr == nil && !mv.Agree()
		})
		mv, err := diffcheck.Run(min, tun)
		if err != nil {
			mv = v
			min = sc
		}
		art := &diffcheck.Artifact{Seed: seed, Index: i, Scenario: min, Verdict: mv}
		if min.Name() != sc.Name() {
			orig := sc
			art.Original = &orig
		}
		path := filepath.Join(outDir, fmt.Sprintf("diffcheck-%d-%d.json", seed, i))
		if err := art.WriteFile(path); err != nil {
			fmt.Fprintf(os.Stderr, "writing artifact: %v\n", err)
		} else {
			fmt.Printf("  artifact: %s (shrunk to %s)\n", path, min.Name())
		}
	}
	return bad
}

// reproduce re-runs a saved artifact's scenario and reports whether the
// disagreement still occurs.
func reproduce(path string, tun diffcheck.Tuning, verbose bool) int {
	art, err := diffcheck.LoadArtifact(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	fmt.Printf("reproducing %s (seed=%d index=%d %s)\n", path, art.Seed, art.Index, art.Scenario.Name())
	v, err := diffcheck.Run(art.Scenario, tun)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if v.Agree() {
		fmt.Println("scenario now agrees (disagreement not reproduced)")
		return 0
	}
	for _, d := range v.Disagreements {
		fmt.Printf("  %s\n", d)
		if verbose && d.Schedule != "" {
			fmt.Println(d.Schedule)
		}
	}
	return 1
}
