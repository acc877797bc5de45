package main

import (
	"fmt"
	"sort"
	"strings"

	"lmc/internal/bench"
	"lmc/internal/core"
	"lmc/internal/model"
	"lmc/internal/protocols/paxos"
	"lmc/internal/shard"
	"lmc/internal/stats"
)

// workload is one named input of the suite. The in-process workloads build
// an input; serve-resume drives the real lmc binary instead (serve.go).
type workload struct {
	name string
	// build makes the check's input from the seed; nil for serve-resume.
	build func(seed int64, tiny bool) (*input, error)
	// pins names the pinned-counter table the workload's results must
	// reproduce at full scale: shard2-explore answers to explore-opt's and
	// serve-resume to bughunt's, which is how "counter for counter equal"
	// is checked when only one workload runs.
	pins string
}

// input is everything one in-process check needs.
type input struct {
	m     model.Machine
	start model.SystemState
	opt   core.Options
	// shardSpec, when set, sends the check through shard.Check with two
	// processes; the worker resolves the same spec (resolveShard).
	shardSpec string
}

var workloads = []workload{
	{name: "gen-sweep", build: buildGenSweep(""), pins: "gen-sweep"},
	{name: "gen-sweep-sym", build: buildGenSweep("sym,por"), pins: "gen-sweep-sym"},
	{name: "explore-opt", build: buildExplore, pins: "explore-opt"},
	{name: "bughunt", build: buildBughunt, pins: "bughunt"},
	{name: "shard2-explore", build: buildShard2, pins: "explore-opt"},
	{name: "serve-resume", pins: "bughunt"},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have: %s)", name, strings.Join(names, ", "))
}

// proposedValue derives the value the single proposer proposes from the
// seed. The explored shape does not depend on it (README, "Seeds").
func proposedValue(seed int64) int { return 1 + int(seed%1000) }

// sweepDepth bounds the total depth of the system states the two sweep
// workloads materialize. Unbounded, the reduced sweep is one 11–15 s check,
// so a run held a single sample of it, and on this two-speed host (README,
// "Seed numbers") ten such runs spread wider than the metric's bound. At
// depth 12 the same sweep is 2 s unreduced and 5 s reduced, still ≥96%
// system-state work, and a run holds several checks of both.
const sweepDepth = 12

// buildGenSweep is one proposal on 4-node Paxos under LMC-GEN, run to the
// fixpoint over system states of depth ≤ sweepDepth: the Cartesian
// system-state sweep is ≥96% of the time.
func buildGenSweep(reduce string) func(int64, bool) (*input, error) {
	return func(seed int64, tiny bool) (*input, error) {
		n := 4
		if tiny {
			n = 3
		}
		m := paxos.New(n, paxos.NoBug, paxos.OnceAt{Node: 0, Index: 0, Value: proposedValue(seed)})
		red, err := core.ParseReductions(reduce)
		if err != nil {
			return nil, err
		}
		return &input{
			m:     m,
			start: model.InitialSystem(m),
			opt: core.Options{Invariant: paxos.Agreement(), Reduce: red, Workers: -1,
				MaxSystemDepth: sweepDepth},
		}, nil
	}
}

// exploreCap is the transition cap of explore-opt: a deterministic
// StopTransitions after one million handler executions.
func exploreCap(tiny bool) int {
	if tiny {
		return 20_000
	}
	return 1_000_000
}

// buildExplore is 1Paxos from its §5.6 live state under LMC-OPT: no
// conflicting interests ever meet, so the run is pure exploration.
func buildExplore(_ int64, tiny bool) (*input, error) {
	in, err := registryInput("1paxos")
	if err != nil {
		return nil, err
	}
	in.opt.MaxTransitions = exploreCap(tiny)
	return in, nil
}

// buildBughunt is the paper's headline: the §5.5 Paxos bug from its live
// state, stopped at the first confirmed violation.
func buildBughunt(int64, bool) (*input, error) {
	in, err := registryInput("paxos-bug")
	if err != nil {
		return nil, err
	}
	in.opt.StopAtFirstBug = true
	return in, nil
}

// buildShard2 is explore-opt's input sent through two shard processes.
func buildShard2(seed int64, tiny bool) (*input, error) {
	in, err := buildExplore(seed, tiny)
	if err != nil {
		return nil, err
	}
	in.shardSpec = "benchmark:explore-opt"
	return in, nil
}

// registryInput builds an LMC-OPT check of a cmd/lmc registry workload, with
// the options cmd/lmc and the daemon would give it.
func registryInput(name string) (*input, error) {
	w, err := bench.Lookup(name)
	if err != nil {
		return nil, err
	}
	start, err := w.StartState()
	if err != nil {
		return nil, fmt.Errorf("building %s start state: %w", name, err)
	}
	return &input{
		m:     w.Machine,
		start: start,
		opt: core.Options{
			Invariant:       w.Invariant,
			LocalInvariants: w.Locals,
			Reduction:       w.Reduction,
			Workers:         -1,
		},
	}, nil
}

// resolveShard is the shard worker's resolver: the one spec the suite
// sends rebuilds explore-opt's machine and start state. The transition cap
// and the other exploration knobs travel in the coordinator's HELLO.
func resolveShard(spec string) (shard.Workload, error) {
	if spec != "benchmark:explore-opt" {
		return shard.Workload{}, fmt.Errorf("benchmark resolver: unknown spec %q", spec)
	}
	in, err := buildExplore(0, false)
	if err != nil {
		return shard.Workload{}, err
	}
	return shard.Workload{Machine: in.m, Start: in.start, Invariant: in.opt.Invariant}, nil
}

// counters are the deterministic counters of one check, by metric-style
// name. They repeat exactly from run to run, so they are compared with ==.
type counters map[string]int64

func countersOf(c *stats.Counters) counters {
	return counters{
		"transitions":        int64(c.Transitions),
		"node_states":        int64(c.NodeStates),
		"system_states":      int64(c.SystemStates),
		"prelim_violations":  int64(c.PreliminaryViolations),
		"soundness_calls":    int64(c.SoundnessCalls),
		"sequences_checked":  int64(c.SequencesChecked),
		"confirmed_bugs":     int64(c.ConfirmedBugs),
		"cover_index_hits":   int64(c.CoverIndexHits),
		"cover_index_misses": int64(c.CoverIndexMisses),
		"symmetry_skips":     int64(c.SymmetrySkips),
		"orbit_checks":       int64(c.OrbitChecks),
		"por_paths_deduped":  int64(c.PORPathsDeduped),
		"por_detached":       int64(c.PORDetached),
	}
}

// verdict is what the oracle compares: how the check ended and what it
// counted.
type verdict struct {
	Stop     string   `json:"stop"`
	Complete bool     `json:"complete"`
	Counters counters `json:"counters"`
}

func verdictOf(res *core.Result) verdict {
	return verdict{Stop: res.StopReason.String(), Complete: res.Complete, Counters: countersOf(&res.Stats)}
}

// pinned holds the full-scale expectations, measured on the seed commit.
// They are exact: the engine is deterministic for every worker and shard
// count, so any difference is a behaviour change, not noise.
var pinned = map[string]verdict{
	"gen-sweep": {Stop: "fixpoint", Complete: true, Counters: counters{
		"transitions": 29089, "node_states": 3312, "system_states": 93297202,
	}},
	"gen-sweep-sym": {Stop: "fixpoint", Complete: true, Counters: counters{
		"transitions": 29089, "node_states": 3312, "system_states": 16674957,
		"symmetry_skips": 76622245,
	}},
	"explore-opt": {Stop: "transitions", Counters: counters{
		"transitions": 1000000, "node_states": 79878,
	}},
	"bughunt": {Stop: "first-bug", Counters: counters{
		"transitions": 25120, "node_states": 24119, "system_states": 1135,
		"prelim_violations": 1135, "soundness_calls": 1085, "sequences_checked": 31536,
		"confirmed_bugs": 1, "cover_index_hits": 1470701, "cover_index_misses": 2573262,
	}},
	// The 3-node registry "paxos" job under LMC-GEN: the burst's unit.
	"burst": {Stop: "fixpoint", Complete: true, Counters: counters{
		"transitions": 3657, "node_states": 528, "system_states": 276480,
	}},
}

// diffVerdict lists how got departs from want. Counters absent from want
// must be zero in got, so a pinned table only spells out what is non-zero.
func diffVerdict(got, want verdict) []string {
	var out []string
	if got.Stop != want.Stop {
		out = append(out, fmt.Sprintf("stop reason %q, want %q", got.Stop, want.Stop))
	}
	if got.Complete != want.Complete {
		out = append(out, fmt.Sprintf("complete=%v, want %v", got.Complete, want.Complete))
	}
	names := make([]string, 0, len(got.Counters))
	for k := range got.Counters {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if got.Counters[k] != want.Counters[k] {
			out = append(out, fmt.Sprintf("%s=%d, want %d", k, got.Counters[k], want.Counters[k]))
		}
	}
	return out
}

// judge is the oracle for one check of workload w: at full scale against
// the pinned table, and always against the workload's first check.
func judge(w workload, tiny bool, got verdict, first *verdict) []string {
	var out []string
	if !tiny {
		for _, d := range diffVerdict(got, pinned[w.pins]) {
			out = append(out, "pinned "+w.pins+": "+d)
		}
	}
	if first != nil {
		for _, d := range diffVerdict(got, *first) {
			out = append(out, "differs from first check: "+d)
		}
	}
	return out
}
