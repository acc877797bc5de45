package bench

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"lmc/internal/core"
	"lmc/internal/obs"
	"lmc/internal/testkit"
)

// TestTablePrinting checks alignment and notes.
func TestTablePrinting(t *testing.T) {
	tbl := &Table{Title: "t", Columns: []string{"a", "bb"}, Notes: []string{"n1"}}
	tbl.Add("x", "y")
	tbl.Addf(12, 3.5)
	s := tbl.String()
	for _, want := range []string{"== t ==", "a", "bb", "x", "12", "3.5", "note: n1"} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q in:\n%s", want, s)
		}
	}
}

// TestWorkloadRegistry: every workload resolves, builds a start state, and
// carries something to check.
func TestWorkloadRegistry(t *testing.T) {
	for _, w := range Workloads() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			got, err := Lookup(w.Name)
			if err != nil || got.Name != w.Name {
				t.Fatalf("lookup: %v", err)
			}
			start, err := w.StartState()
			if err != nil {
				t.Fatalf("start state: %v", err)
			}
			if len(start) != w.Machine.NumNodes() {
				t.Fatalf("start size %d != %d nodes", len(start), w.Machine.NumNodes())
			}
			if w.Invariant == nil && len(w.Locals) == 0 {
				t.Fatal("workload has nothing to check")
			}
		})
	}
	if _, err := Lookup("nope"); err == nil {
		t.Fatal("unknown workload resolved")
	}
}

// TestTreePrimerTable regenerates E10 and sanity-checks the shape: fewer
// local transitions, at least one rejected preliminary violation, no bugs.
func TestTreePrimerTable(t *testing.T) {
	tbl := TreePrimer()
	s := tbl.String()
	if !strings.Contains(s, "confirmed bugs") {
		t.Fatalf("unexpected table:\n%s", s)
	}
}

// TestTransitionsShape: LMC transitions must undercut B-DFS by a wide
// margin on the one-proposal space (the §5.1 claim).
func TestTransitionsShape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full one-proposal space three times")
	}
	bdfs, gen, opt := runSeries(2 * time.Minute)
	if !bdfs.Complete || !gen.Complete || !opt.Complete {
		t.Fatalf("incomplete runs")
	}
	if bdfs.Stats.Transitions < 5*gen.Stats.Transitions {
		t.Errorf("B-DFS/LMC transition ratio too small: %d / %d",
			bdfs.Stats.Transitions, gen.Stats.Transitions)
	}
	if opt.Stats.SystemStates != 0 {
		t.Errorf("LMC-OPT created %d system states, want 0", opt.Stats.SystemStates)
	}
	if gen.Stats.SystemStates == 0 {
		t.Errorf("LMC-GEN created no system states")
	}
	// Figure 10's ordering: OPT faster than GEN faster than B-DFS.
	if !(opt.Stats.Elapsed < gen.Stats.Elapsed && gen.Stats.Elapsed < bdfs.Stats.Elapsed) {
		t.Errorf("elapsed ordering broken: opt=%v gen=%v bdfs=%v",
			opt.Stats.Elapsed, gen.Stats.Elapsed, bdfs.Stats.Elapsed)
	}
}

// TestBugArtifacts: the two bug-report tables must actually contain the
// rediscovered bugs.
func TestBugArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("bug hunts")
	}
	pb, err := PaxosBug(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(pb.String(), "NOT FOUND") {
		t.Fatalf("§5.5 bug not rediscovered:\n%s", pb)
	}
	ob, err := OnePaxosBug(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(ob.String(), "NOT FOUND") {
		t.Fatalf("§5.6 bug not rediscovered:\n%s", ob)
	}
}

// TestBughuntCountersAndAllocCeiling runs the repository benchmark's bughunt
// input (benchmark/workloads.go, buildBughunt: registry paxos-bug, LMC-OPT,
// first bug, sequential) and pins the counters its oracle pins, so go test
// holds them too — and holds the check's heap traffic under a ceiling: the
// witness search works out of reused scratch (core.witnessScratch) and a
// discovery builds nothing for a search that may never ask (flow memos are
// built on first use), so a per-candidate or per-discovery allocation coming
// back shows here before it shows as seconds.
func TestBughuntCountersAndAllocCeiling(t *testing.T) {
	w, err := Lookup("paxos-bug")
	if err != nil {
		t.Fatal(err)
	}
	start, err := w.StartState()
	if err != nil {
		t.Fatal(err)
	}
	opt := core.Options{Invariant: w.Invariant, Reduction: w.Reduction, StopAtFirstBug: true, Workers: -1}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := core.Check(w.Machine, start, opt)
	runtime.ReadMemStats(&after)

	if res.StopReason != core.StopFirstBug || len(res.Bugs) != 1 {
		t.Fatalf("bughunt: stop=%v bugs=%d", res.StopReason, len(res.Bugs))
	}
	s := res.Stats
	for _, c := range []struct {
		name      string
		got, want int
	}{
		{"transitions", s.Transitions, 25_120},
		{"node_states", s.NodeStates, 24_119},
		{"system_states", s.SystemStates, 1_135},
		{"invariant_checks", s.InvariantChecks, 1_135},
		{"prelim_violations", s.PreliminaryViolations, 1_135},
		{"soundness_calls", s.SoundnessCalls, 1_085},
		{"sequences_checked", s.SequencesChecked, 31_536},
		{"confirmed_bugs", s.ConfirmedBugs, 1},
		{"cover_index_hits", s.CoverIndexHits, 1_470_701},
		{"cover_index_misses", s.CoverIndexMisses, 2_573_262},
		{"witness_skips", s.WitnessSkips, 0},
	} {
		if c.got != c.want {
			t.Errorf("bughunt: %s=%d, want %d", c.name, c.got, c.want)
		}
	}

	const maxBytes, maxMallocs = 25 << 20, 330_000
	bytes, mallocs := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	t.Logf("one check: %.1f MB in %d allocations", float64(bytes)/(1<<20), mallocs)
	if bytes > maxBytes || mallocs > maxMallocs {
		t.Fatalf("one check allocated %.1f MB in %d objects; the ceiling is %d MB in %d",
			float64(bytes)/(1<<20), mallocs, maxBytes>>20, maxMallocs)
	}
}

// TestPaxosTwoWitnessSearchCounters pins a run where the witness search is
// the run: the two-proposal space under LMC-OPT, sequential, cut off at a
// transition cap. Thousands of searches refute millions of candidate pairs
// and none of them materializes a system state, so these counters are the
// pair-refutation loop's own — every coverage query it charges, whether the
// search answered it from the producer index or from what it had already
// learned.
func TestPaxosTwoWitnessSearchCounters(t *testing.T) {
	w, err := Lookup("paxos-two")
	if err != nil {
		t.Fatal(err)
	}
	start, err := w.StartState()
	if err != nil {
		t.Fatal(err)
	}
	res := core.Check(w.Machine, start, core.Options{Invariant: w.Invariant, Reduction: w.Reduction,
		MaxTransitions: 20_000, Workers: -1})
	if res.StopReason != core.StopTransitions || len(res.Bugs) != 0 {
		t.Fatalf("paxos-two: stop=%v bugs=%d", res.StopReason, len(res.Bugs))
	}
	s := res.Stats
	for _, c := range []struct {
		name      string
		got, want int
	}{
		{"transitions", s.Transitions, 20_000},
		{"node_states", s.NodeStates, 6_528},
		{"soundness_calls", s.SoundnessCalls, 6_384},
		{"cover_index_hits", s.CoverIndexHits, 7_680_960},
		{"cover_index_misses", s.CoverIndexMisses, 13_455_936},
		{"system_states", s.SystemStates, 0},
	} {
		if c.got != c.want {
			t.Errorf("paxos-two: %s=%d, want %d", c.name, c.got, c.want)
		}
	}
	t.Logf("%d searches in %v", s.SoundnessCalls, s.Elapsed)
}

// TestExploreOptCountersAndAllocCeiling is the same for the benchmark's
// explore-opt input (benchmark/workloads.go, buildExplore: registry 1paxos
// from its live state, LMC-OPT, one million transitions, sequential). Nine in
// ten of those transitions land on a visited state and close to half on the
// parent itself, so what a check allocates is what a transition that goes
// nowhere costs: nothing for the handler's copy, which is recycled into the
// next handler's (model.Recycler), a successor that carries its fingerprint
// when its handler wrote nothing and is re-hashed from the first section it
// wrote otherwise (folded straight into the hash, no encoding buffer),
// nothing for a self-loop, and for any other edge a 32-byte record whose
// emission fingerprints went to a reused phase buffer. A per-transition
// Clone, encode or emission slice coming back shows here first. The counters hold under the race detector too; the ceiling is for
// plain builds (raceDetector).
func TestExploreOptCountersAndAllocCeiling(t *testing.T) {
	w, err := Lookup("1paxos")
	if err != nil {
		t.Fatal(err)
	}
	start, err := w.StartState()
	if err != nil {
		t.Fatal(err)
	}
	opt := core.Options{Invariant: w.Invariant, LocalInvariants: w.Locals, Reduction: w.Reduction,
		MaxTransitions: 1_000_000, Workers: -1}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := core.Check(w.Machine, start, opt)
	runtime.ReadMemStats(&after)

	if res.StopReason != core.StopTransitions || len(res.Bugs) != 0 {
		t.Fatalf("explore-opt: stop=%v bugs=%d", res.StopReason, len(res.Bugs))
	}
	s := res.Stats
	for _, c := range []struct {
		name      string
		got, want int
	}{
		{"transitions", s.Transitions, 1_000_000},
		{"node_states", s.NodeStates, 79_878},
		{"rejections", s.Rejections, 0},
		{"system_states", s.SystemStates, 0},
	} {
		if c.got != c.want {
			t.Errorf("explore-opt: %s=%d, want %d", c.name, c.got, c.want)
		}
	}

	const maxBytes, maxMallocs = 241 << 20, 3_310_000
	bytes, mallocs := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	t.Logf("one check: %.1f MB in %d allocations", float64(bytes)/(1<<20), mallocs)
	if !raceDetector && (bytes > maxBytes || mallocs > maxMallocs) {
		t.Fatalf("one check allocated %.1f MB in %d objects; the ceiling is %d MB in %d",
			float64(bytes)/(1<<20), mallocs, maxBytes>>20, maxMallocs)
	}
}

// TestExploreOptRetainedBytesPerState bounds what the explore-opt check keeps
// per visited state: an observer forces a collection at run end, while the
// checker still holds every space, and the heap then live beyond what was
// live before the check is divided by the node states. Predecessor edges are
// the largest part of it; they are pointer-free 32-byte records with their
// emission fingerprints pooled per space (core's pred), and an edge layout
// that grows or gains a per-edge allocation again shows here.
func TestExploreOptRetainedBytesPerState(t *testing.T) {
	w, err := Lookup("1paxos")
	if err != nil {
		t.Fatal(err)
	}
	start, err := w.StartState()
	if err != nil {
		t.Fatal(err)
	}
	var before, atEnd runtime.MemStats
	observer := obs.FuncObserver(func(e obs.Event) {
		if e.Kind == obs.KindRunEnd {
			runtime.GC()
			runtime.ReadMemStats(&atEnd)
		}
	})
	opt := core.Options{Invariant: w.Invariant, LocalInvariants: w.Locals, Reduction: w.Reduction,
		MaxTransitions: 1_000_000, Workers: -1, Observer: observer, HeartbeatEvery: -1}

	runtime.GC()
	runtime.ReadMemStats(&before)
	res := core.Check(w.Machine, start, opt)
	if res.Stats.NodeStates != 79_878 || atEnd.HeapAlloc == 0 {
		t.Fatalf("explore-opt: %d node states, run-end heap %d B", res.Stats.NodeStates, atEnd.HeapAlloc)
	}
	const maxPerState = 1_000
	perState := (float64(atEnd.HeapAlloc) - float64(before.HeapAlloc)) / float64(res.Stats.NodeStates)
	t.Logf("%.0f B retained per state (%.1f MB over %d states)", perState,
		(float64(atEnd.HeapAlloc)-float64(before.HeapAlloc))/(1<<20), res.Stats.NodeStates)
	if perState > maxPerState {
		t.Fatalf("%.0f B retained per state; the bound is %d", perState, maxPerState)
	}
}

// TestBenchmarkInputsHandlersAudited runs the two benchmark inputs the
// ceilings above pin — explore-opt at the benchmark's -scale tiny cap, and
// bughunt whole — with every handler execution audited (testkit.Audit: a
// successor's carried fingerprint is the hash of its encoding, and a handler
// writes to nothing but its own copy), sequentially and on the worker pool.
// A transition cap keeps the sweeps off the pool, so the pool run of the
// capped input is bounded by a budget instead; the audit needs no particular
// stopping point.
func TestBenchmarkInputsHandlersAudited(t *testing.T) {
	for _, tc := range []struct {
		workload string
		bound    func(o *core.Options, pool bool)
	}{
		{"1paxos", func(o *core.Options, pool bool) {
			if pool {
				o.Budget = 500 * time.Millisecond
			} else {
				o.MaxTransitions = 20_000
			}
		}},
		{"paxos-bug", func(o *core.Options, _ bool) { o.StopAtFirstBug = true }},
	} {
		w, err := Lookup(tc.workload)
		if err != nil {
			t.Fatal(err)
		}
		start, err := w.StartState()
		if err != nil {
			t.Fatal(err)
		}
		m := testkit.Audit(w.Machine, t)
		for _, workers := range []int{-1, 4} {
			opt := core.Options{Invariant: w.Invariant, LocalInvariants: w.Locals, Reduction: w.Reduction, Workers: workers}
			tc.bound(&opt, workers > 0)
			res := core.Check(m, start, opt)
			if res.Stats.Transitions == 0 {
				t.Errorf("%s workers=%d: no handler ran", tc.workload, workers)
			}
		}
	}
}
