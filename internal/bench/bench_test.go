package bench

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"lmc/internal/core"
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
// witness search works out of reused scratch (core.witnessScratch), and a
// per-candidate allocation coming back shows here before it shows as seconds.
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

	const maxBytes, maxMallocs = 100 << 20, 1_500_000
	bytes, mallocs := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	t.Logf("one check: %.1f MB in %d allocations", float64(bytes)/(1<<20), mallocs)
	if bytes > maxBytes || mallocs > maxMallocs {
		t.Fatalf("one check allocated %.1f MB in %d objects; the ceiling is %d MB in %d",
			float64(bytes)/(1<<20), mallocs, maxBytes>>20, maxMallocs)
	}
}
