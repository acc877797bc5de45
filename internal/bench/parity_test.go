package bench

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"
	"time"

	"lmc/internal/core"
)

var updateParity = flag.Bool("update", false, "rewrite testdata/parity.golden from this run")

// parityVariants are the deterministic option variants of the parity dump.
// None reads the clock: every run ends at its fixpoint, at a transition cap,
// at a depth bound or at its first bug.
var parityVariants = []struct {
	name string
	set  func(*core.Options)
}{
	{"seq", func(o *core.Options) {}},
	{"w4", func(o *core.Options) { o.Workers = 4 }},
	{"first-bug", func(o *core.Options) { o.StopAtFirstBug = true }},
	{"cap300", func(o *core.Options) { capAt(o, 300) }},
	{"cap1500", func(o *core.Options) { capAt(o, 1500) }},
	{"sym", func(o *core.Options) { o.Reduce = core.Reductions{Symmetry: true} }},
	{"no-soundness", func(o *core.Options) { o.DisableSoundness = true }},
	{"depth", func(o *core.Options) { o.MaxPathDepth, o.MaxSystemDepth = 3, 4 }},
	{"deepening", func(o *core.Options) { o.LocalBoundStep, o.MaxLocalBound = 1, 3 }},
}

// capAt lowers the run's transition cap to n (never raises a base cap).
func capAt(o *core.Options, n int) {
	if o.MaxTransitions == 0 || n < o.MaxTransitions {
		o.MaxTransitions = n
	}
}

// parityCap is the base transition cap {GEN, OPT} of the workloads whose
// fixpoints take minutes — depth bounds are too coarse for them (path depth 2
// is trivial, 3 already seconds). A capped run explores in the canonical
// order for every worker count, so their w4 lines cover only the pooled
// sweeps and confirmations; the eight uncapped workloads cover the parallel
// walks.
var parityCap = map[string][2]int{
	"paxos-bug":    {1600, 3200},
	"paxos-two":    {1000, 2400},
	"1paxos":       {1600, 30000},
	"1paxos-bug":   {200, 200},
	"randtree-bug": {75, 75},
}

// TestParityGolden is the bit-for-bit acceptance check of every engine
// refactor: one line per registry workload × {GEN, OPT} × deterministic
// option variant, holding every non-wall-clock counter, the run's outcome
// fields and an FNV over its bugs and their schedules. The golden file is
// generated (go test ./internal/bench -run TestParityGolden -update) at the
// parent of a change that must not move any of it, and has to pass unchanged
// after it.
func TestParityGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every registry workload 18 times")
	}
	var got strings.Builder
	for _, w := range Workloads() {
		start, err := w.StartState()
		if err != nil {
			t.Fatal(err)
		}
		for mi, mode := range []string{"GEN", "OPT"} {
			for _, v := range parityVariants {
				opt := core.Options{
					Invariant:       w.Invariant,
					LocalInvariants: w.Locals,
					MaxTransitions:  parityCap[w.Name][mi],
					Workers:         -1,
				}
				if mode == "OPT" {
					opt.Reduction = w.Reduction
				}
				v.set(&opt)
				began := time.Now()
				res := core.Check(w.Machine, start, opt)
				if d := time.Since(began); d > time.Second {
					t.Logf("%s %s %s took %v", w.Name, mode, v.name, d)
				}
				fmt.Fprintf(&got, "%s %s %s: %s\n", w.Name, mode, v.name, parityLine(res))
			}
		}
	}

	const path = "testdata/parity.golden"
	if *updateParity {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Errorf("%d lines, golden has %d", len(gotLines), len(wantLines))
	}
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, gotLines[i], wantLines[i])
		}
	}
}

// parityLine renders one run: the counters with the wall-clock durations
// zeroed, the outcome fields, and a hash of the bugs in report order.
func parityLine(res *core.Result) string {
	s := res.Stats
	s.Elapsed, s.SoundnessTime, s.SystemStateTime, s.ShardWaitTime = 0, 0, 0, 0
	h := fnv.New64a()
	for _, b := range res.Bugs {
		fmt.Fprintf(h, "%s|%s|%d|%x\n%s", b.Violation.Invariant, b.Violation.Detail,
			b.Depth, uint64(b.System.Fingerprint()), b.Schedule.String())
	}
	return fmt.Sprintf("%+v complete=%v stop=%v suppressed=%v bound=%d bugs=%d fnv=%016x",
		s, res.Complete, res.StopReason, res.Suppressed, res.FinalLocalBound, len(res.Bugs), h.Sum64())
}
