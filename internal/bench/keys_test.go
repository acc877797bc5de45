package bench

import (
	"testing"

	"lmc/internal/core"
	"lmc/internal/model"
	"lmc/internal/spec"
)

// countingReduction counts what a check asks of its reduction: Interest
// calls, and Conflict calls per unordered pair of interest keys. It counts
// without a lock: only the merge goroutine may ask, and -race holds the
// engine to that.
type countingReduction struct {
	spec.KeyedReduction
	interests int
	asked     map[[2]string]int
}

func (r *countingReduction) Interest(n model.NodeID, s model.State) (spec.Interest, bool) {
	r.interests++
	return r.KeyedReduction.Interest(n, s)
}

func (r *countingReduction) Conflict(a, b spec.Interest) bool {
	x, y := r.InterestKey(a), r.InterestKey(b)
	r.asked[[2]string{min(x, y), max(x, y)}]++
	return r.KeyedReduction.Conflict(a, b)
}

// TestKeyTableContract holds LMC-OPT to its one key table: every visited
// state is projected exactly once, and Conflict is asked at most once per
// unordered pair of interest keys in a run — however many discoveries,
// groups and witness searches ask about the pair, and on the worker pool as
// sequentially.
func TestKeyTableContract(t *testing.T) {
	for _, tc := range []struct {
		workload string
		bound    func(o *core.Options)
	}{
		{"paxos-bug", func(o *core.Options) { o.StopAtFirstBug = true }},
		{"paxos-two", func(o *core.Options) { o.MaxTransitions = 20_000 }},
		{"twophase-bug", func(*core.Options) {}},
		{"actor-2pc-bug", func(*core.Options) {}},
	} {
		w, err := Lookup(tc.workload)
		if err != nil {
			t.Fatal(err)
		}
		start, err := w.StartState()
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{-1, 4} {
			red := &countingReduction{KeyedReduction: w.Reduction.(spec.KeyedReduction), asked: make(map[[2]string]int)}
			opt := core.Options{Invariant: w.Invariant, LocalInvariants: w.Locals, Reduction: red, Workers: workers}
			tc.bound(&opt)
			res := core.Check(w.Machine, start, opt)
			if red.interests != res.Stats.NodeStates {
				t.Errorf("%s workers=%d: Interest called %d times for %d node states",
					tc.workload, workers, red.interests, res.Stats.NodeStates)
			}
			calls := 0
			for pair, n := range red.asked {
				calls += n
				if n != 1 {
					t.Errorf("%s workers=%d: Conflict%q asked %d times", tc.workload, workers, pair, n)
				}
			}
			t.Logf("%s workers=%d: %d node states, %d Conflict calls, %d soundness calls",
				tc.workload, workers, res.Stats.NodeStates, calls, res.Stats.SoundnessCalls)
		}
	}
}
