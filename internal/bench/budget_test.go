package bench

import (
	"fmt"
	"testing"
	"time"

	"lmc/internal/core"
	"lmc/internal/mc/global"
	"lmc/internal/obs"
)

// TestEveryModeStopsAtBudget: every checker mode honours a wall-clock
// Budget — it stops with StopBudget, and no later than a fixed slack past
// the deadline. The LMC modes run sequentially and on a four-worker pool.
// LMC-GEN on paxos-bug is the case that used to overrun: its first anchor's
// sweep ends just before the deadline with hundreds of thousands of
// preliminary violations, and sorting them and building their confirmation
// table must not run on past it. LMC-GEN on correct 1Paxos spends most of a
// run preparing sweeps that are decided at their root, one per discovery,
// so only a clock read per anchor holds it to its budget.
func TestEveryModeStopsAtBudget(t *testing.T) {
	const budget = time.Second
	slack := raceBudgetScale * 250 * time.Millisecond
	for _, name := range []string{"paxos-bug", "1paxos"} {
		w, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		start, err := w.StartState()
		if err != nil {
			t.Fatal(err)
		}
		type run func() (obs.StopReason, time.Duration)
		local := func(opt core.Options) run {
			opt.Invariant, opt.LocalInvariants, opt.Budget = w.Invariant, w.Locals, budget
			return func() (obs.StopReason, time.Duration) {
				res := core.Check(w.Machine, start, opt)
				return res.StopReason, res.Stats.Elapsed
			}
		}
		baseline := func(s global.Strategy) run {
			return func() (obs.StopReason, time.Duration) {
				res := global.Check(w.Machine, start, global.Options{Invariant: w.Invariant, Strategy: s, Budget: budget})
				return res.StopReason, res.Stats.Elapsed
			}
		}
		type mode struct {
			name  string
			check run
		}
		var modes []mode
		for _, workers := range []int{-1, 4} {
			modes = append(modes,
				mode{fmt.Sprintf("gen/w%d", workers), local(core.Options{Workers: workers})},
				mode{fmt.Sprintf("gen-sym/w%d", workers), local(core.Options{Workers: workers,
					Reduce: core.Reductions{Symmetry: true}})},
				mode{fmt.Sprintf("opt/w%d", workers), local(core.Options{Workers: workers, Reduction: w.Reduction})})
		}
		modes = append(modes, mode{"bdfs", baseline(global.DFS)}, mode{"bfs", baseline(global.BFS)})
		for _, m := range modes {
			t.Run(name+"/"+m.name, func(t *testing.T) {
				reason, elapsed := m.check()
				t.Logf("stopped %v after %v", reason, elapsed)
				if reason != obs.StopBudget || elapsed > budget+slack {
					t.Errorf("stop reason %v after %v, want %v within %v", reason, elapsed, obs.StopBudget, budget+slack)
				}
			})
		}
	}
}
