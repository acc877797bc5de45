package bench

import (
	"fmt"
	"time"

	"lmc/internal/actordemo"
	"lmc/internal/core"
	"lmc/internal/mc/global"
	"lmc/internal/model"
	"lmc/internal/online"
	"lmc/internal/protocols/chain"
	"lmc/internal/protocols/onepaxos"
	"lmc/internal/protocols/paxos"
	"lmc/internal/protocols/tree"
	"lmc/internal/protocols/twophase"
	"lmc/internal/sim"
	"lmc/internal/simnet"
	"lmc/internal/spec"
	"lmc/internal/stats"
)

// oneProposal is the §5.1 benchmark space: three nodes, one proposal.
func oneProposal() *paxos.Machine {
	return paxos.New(3, paxos.NoBug, paxos.OnceAt{Node: 0, Index: 0, Value: 7})
}

// twoProposals is the §5.2 scalability space: two competing proposals.
func twoProposals() *paxos.Machine {
	return paxos.New(3, paxos.NoBug, paxos.EachOnce{Nodes: []model.NodeID{0, 1}, Index: 0})
}

// buggyFromLive returns the §5.5 buggy machine and its live state.
func buggyFromLive() (*paxos.Machine, model.SystemState, error) {
	m := paxos.New(3, paxos.LastResponseBug, paxos.ActiveIndex{MaxPerNode: 1})
	live, err := paxos.PaperLiveState(m)
	return m, live, err
}

// runSeries runs the three §5.1 configurations with per-depth recording.
// GEN gets the invariant as a plain function, which declares no pairs
// (spec.PrefixInvariant): the series is the paper's GEN, which evaluates
// every combination.
func runSeries(budget time.Duration) (bdfs *global.Result, gen, opt *core.Result) {
	m := oneProposal()
	start := model.InitialSystem(m)
	inv := paxos.Agreement()
	bdfs = global.Check(m, start, global.Options{
		Invariant:    inv,
		Strategy:     global.BFS, // completes depths in order: one run yields the series
		Budget:       budget,
		RecordSeries: true,
	})
	gen = core.Check(m, start, core.Options{
		Invariant:    spec.InvariantFunc{InvName: inv.Name(), Fn: inv.Check},
		Budget:       budget,
		RecordSeries: true,
	})
	opt = core.Check(m, start, core.Options{
		Invariant:    inv,
		Reduction:    paxos.Reduction{},
		Budget:       budget,
		RecordSeries: true,
	})
	return bdfs, gen, opt
}

// mergeSeries renders several per-depth series side by side; column i+1
// holds pick(sample) for series i, "-" where a series has no sample at the
// depth.
func mergeSeries(title string, names []string, series []*stats.Series, pick func(stats.Sample) string, notes ...string) *Table {
	t := &Table{Title: title, Columns: append([]string{"depth"}, names...), Notes: notes}
	depths := map[int]bool{}
	maps := make([]map[int]stats.Sample, len(series))
	for i, se := range series {
		maps[i] = map[int]stats.Sample{}
		if se == nil {
			continue
		}
		for _, s := range se.Points() {
			maps[i][s.Depth] = s
			depths[s.Depth] = true
		}
	}
	ordered := make([]int, 0, len(depths))
	for d := range depths {
		ordered = append(ordered, d)
	}
	for i := 0; i < len(ordered); i++ {
		for j := i + 1; j < len(ordered); j++ {
			if ordered[j] < ordered[i] {
				ordered[i], ordered[j] = ordered[j], ordered[i]
			}
		}
	}
	for _, d := range ordered {
		row := []string{fmt.Sprintf("%d", d)}
		for i := range series {
			if s, ok := maps[i][d]; ok {
				row = append(row, pick(s))
			} else {
				row = append(row, "-")
			}
		}
		t.Add(row...)
	}
	return t
}

func secs(d time.Duration) string { return fmt.Sprintf("%.6f", d.Seconds()) }

// Fig10 regenerates Figure 10: elapsed time vs depth for B-DFS, LMC-GEN
// and LMC-OPT on the one-proposal Paxos space.
func Fig10(budget time.Duration) *Table {
	bdfs, gen, opt := runSeries(budget)
	m := oneProposal()
	decided := core.Check(m, model.InitialSystem(m), core.Options{Invariant: paxos.Agreement(), Budget: budget})
	t := mergeSeries("Figure 10: elapsed seconds vs depth (Paxos, 1 proposal)",
		[]string{"B-DFS", "LMC-GEN", "LMC-OPT"},
		[]*stats.Series{bdfs.Series, gen.Series, opt.Series},
		func(s stats.Sample) string { return secs(s.Elapsed) },
		fmt.Sprintf("totals: B-DFS %v, LMC-GEN %v, LMC-OPT %v (paper: 1514 s, 5.16 s, 0.189 s on a 3 GHz P4)",
			bdfs.Stats.Elapsed.Round(time.Millisecond),
			gen.Stats.Elapsed.Round(time.Millisecond),
			opt.Stats.Elapsed.Round(time.Millisecond)),
		fmt.Sprintf("speedups: LMC-GEN %.0fx, LMC-OPT %.0fx over B-DFS (paper: ~300x, ~8000x)",
			ratio(bdfs.Stats.Elapsed, gen.Stats.Elapsed),
			ratio(bdfs.Stats.Elapsed, opt.Stats.Elapsed)),
		fmt.Sprintf("LMC-GEN deciding conflict-free sweep subtrees (the invariant declares its pairs): %v, %d system states counted",
			decided.Stats.Elapsed.Round(time.Millisecond), decided.Stats.SystemStates))
	return t
}

func ratio(a, b time.Duration) float64 {
	if b <= 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// Fig11 regenerates Figure 11: explored states vs depth. The B-DFS column
// counts global states, the LMC columns count created system states, and
// LMC-local counts visited node states.
func Fig11(budget time.Duration) *Table {
	bdfs, gen, opt := runSeries(budget)
	t := mergeSeries("Figure 11: explored states vs depth (Paxos, 1 proposal)",
		[]string{"B-DFS", "LMC-GEN-system", "LMC-OPT-system", "LMC-local"},
		[]*stats.Series{bdfs.Series, gen.Series, opt.Series, gen.Series},
		func(s stats.Sample) string {
			// The pick function cannot distinguish columns; rows are built
			// below instead.
			return ""
		})
	// Rebuild rows with per-column quantities.
	t.Rows = nil
	type point struct{ g, gs, os, nl string }
	pts := map[int]*point{}
	get := func(d int) *point {
		p := pts[d]
		if p == nil {
			p = &point{g: "-", gs: "-", os: "-", nl: "-"}
			pts[d] = p
		}
		return p
	}
	for _, s := range bdfs.Series.Points() {
		get(s.Depth).g = fmt.Sprintf("%d", s.GlobalStates)
	}
	for _, s := range gen.Series.Points() {
		get(s.Depth).gs = fmt.Sprintf("%d", s.SystemStates)
		get(s.Depth).nl = fmt.Sprintf("%d", s.NodeStates)
	}
	for _, s := range opt.Series.Points() {
		get(s.Depth).os = fmt.Sprintf("%d", s.SystemStates)
	}
	depths := make([]int, 0, len(pts))
	for d := range pts {
		depths = append(depths, d)
	}
	for i := 0; i < len(depths); i++ {
		for j := i + 1; j < len(depths); j++ {
			if depths[j] < depths[i] {
				depths[i], depths[j] = depths[j], depths[i]
			}
		}
	}
	for _, d := range depths {
		p := pts[d]
		t.Add(fmt.Sprintf("%d", d), p.g, p.gs, p.os, p.nl)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("totals: B-DFS %d global states; LMC %d node states, %d (GEN) vs %d (OPT) system states (paper: OPT creates zero)",
			bdfs.Stats.GlobalStates, gen.Stats.NodeStates, gen.Stats.SystemStates, opt.Stats.SystemStates))
	return t
}

// Fig12 regenerates Figure 12: heap growth vs depth, including the
// LMC-local configuration (system-state creation disabled).
func Fig12(budget time.Duration) *Table {
	bdfs, gen, opt := runSeries(budget)
	m := oneProposal()
	local := core.Check(m, model.InitialSystem(m), core.Options{
		Invariant:           paxos.Agreement(),
		DisableSystemStates: true,
		Budget:              budget,
		RecordSeries:        true,
	})
	t := mergeSeries("Figure 12: heap growth (KB) vs depth (Paxos, 1 proposal)",
		[]string{"B-DFS", "LMC-GEN", "LMC-OPT", "LMC-local"},
		[]*stats.Series{bdfs.Series, gen.Series, opt.Series, local.Series},
		func(s stats.Sample) string { return fmt.Sprintf("%.0f", float64(s.HeapBytes)/1024) },
		"paper: all LMC configurations stay under ~200 KB and grow linearly; B-DFS grows exponentially toward 1 MB")
	return t
}

// Fig13 regenerates Figure 13: the overhead breakdown of LMC-OPT on the
// buggy Paxos implementation — the full checker vs soundness verification
// disabled ("LMC-system-state") vs system-state creation disabled
// ("LMC-explore").
func Fig13(budget time.Duration) (*Table, error) {
	run := func(tweak func(*core.Options)) (*core.Result, error) {
		m, live, err := buggyFromLive()
		if err != nil {
			return nil, err
		}
		opt := core.Options{
			Invariant:    paxos.Agreement(),
			Reduction:    paxos.Reduction{},
			Budget:       budget,
			RecordSeries: true,
		}
		tweak(&opt)
		return core.Check(m, live, opt), nil
	}
	full, err := run(func(o *core.Options) { o.StopAtFirstBug = true })
	if err != nil {
		return nil, err
	}
	noSound, err := run(func(o *core.Options) { o.DisableSoundness = true })
	if err != nil {
		return nil, err
	}
	explore, err := run(func(o *core.Options) { o.DisableSystemStates = true })
	if err != nil {
		return nil, err
	}
	// Where the full configuration stopped: the total depth of the violating
	// system state its first confirmed bug carries, counted from the live
	// state the run started in (the paper counts from the initial state).
	bug := "no bug confirmed within the budget"
	if len(full.Bugs) > 0 {
		bug = fmt.Sprintf("first confirmed bug in a system state %d events past the live state", full.Bugs[0].Depth)
	}
	t := mergeSeries("Figure 13: LMC overheads on buggy Paxos (elapsed seconds vs depth)",
		[]string{"LMC-OPT", "LMC-system-state", "LMC-explore"},
		[]*stats.Series{full.Series, noSound.Series, explore.Series},
		func(s stats.Sample) string { return secs(s.Elapsed) },
		fmt.Sprintf("LMC-OPT: %d soundness calls, %v avg/call, %d sequences checked (paper: 773 calls, 45 ms avg, 427,731 sequences)",
			full.Stats.SoundnessCalls, full.Stats.AvgSoundnessCall().Round(time.Microsecond),
			full.Stats.SequencesChecked),
		fmt.Sprintf("LMC-OPT: %s, %d confirmed (paper: rediscovered at depth 28)", bug, full.Stats.ConfirmedBugs))
	return t, nil
}

// Transitions regenerates the §5.1 transition-count comparison: B-DFS
// executes each node transition once per global state that embeds it; LMC
// executes it once.
func Transitions(budget time.Duration) *Table {
	bdfs, gen, opt := runSeries(budget)
	t := &Table{
		Title:   "§5.1: transitions executed (Paxos, 1 proposal)",
		Columns: []string{"checker", "transitions", "states", "elapsed"},
		Notes: []string{
			fmt.Sprintf("ratio B-DFS/LMC = %.0fx (paper: 157,332 / 1,186 = ~132x)",
				float64(bdfs.Stats.Transitions)/float64(gen.Stats.Transitions)),
		},
	}
	t.Addf("B-DFS", bdfs.Stats.Transitions, bdfs.Stats.GlobalStates, bdfs.Stats.Elapsed.Round(time.Millisecond))
	t.Addf("LMC-GEN", gen.Stats.Transitions, gen.Stats.NodeStates, gen.Stats.Elapsed.Round(time.Millisecond))
	t.Addf("LMC-OPT", opt.Stats.Transitions, opt.Stats.NodeStates, opt.Stats.Elapsed.Round(time.Millisecond))
	return t
}

// Scalability regenerates §5.2: on the two-proposal space neither checker
// finishes; the table reports the depth each reaches within the budget, on
// the coordinates of Figures 10–12 — B-DFS its global event depth, LMC the
// last sample of its series (the sum over nodes of the deepest visited path).
// LMC's Stats.MaxDepth is not that: the run materializes no system state, so
// the counter is the deepest single-node path.
func Scalability(budget time.Duration) *Table {
	m := twoProposals()
	start := model.InitialSystem(m)
	bdfs := global.Check(m, start, global.Options{
		Invariant: paxos.Agreement(),
		Strategy:  global.BFS,
		Budget:    budget,
	})
	lmc := core.Check(m, start, core.Options{
		Invariant:      paxos.Agreement(),
		Reduction:      paxos.Reduction{},
		Budget:         budget,
		LocalBoundStep: 1,
		MaxLocalBound:  4,
		RecordSeries:   true,
	})
	lmcDepth := 0
	if pts := lmc.Series.Points(); len(pts) > 0 {
		lmcDepth = pts[len(pts)-1].Depth
	}
	t := &Table{
		Title:   fmt.Sprintf("§5.2: scalability limits (Paxos, 2 proposals, %v budget each)", budget),
		Columns: []string{"checker", "depth reached", "transitions", "states", "complete"},
		Notes: []string{
			"paper: after hours, B-DFS reached depth 20 of 41; LMC reached 39 of 68; soundness verification dominates LMC's slowdown",
			fmt.Sprintf("depth: B-DFS global event depth; LMC sum over nodes of the deepest visited path (deepest single-node path: %d)", lmc.Stats.MaxDepth),
		},
	}
	t.Addf("B-DFS", bdfs.Stats.MaxDepth, bdfs.Stats.Transitions, bdfs.Stats.GlobalStates, bdfs.Complete)
	t.Addf("LMC-OPT", lmcDepth, lmc.Stats.Transitions, lmc.Stats.NodeStates, lmc.Complete)
	return t
}

// Soundness regenerates the §5.4 soundness-verification statistics from
// the buggy-Paxos run.
func Soundness(budget time.Duration) (*Table, error) {
	m, live, err := buggyFromLive()
	if err != nil {
		return nil, err
	}
	res := core.Check(m, live, core.Options{
		Invariant:      paxos.Agreement(),
		Reduction:      paxos.Reduction{},
		Budget:         budget,
		StopAtFirstBug: true,
	})
	t := &Table{
		Title:   "§5.4: soundness-verification cost (buggy Paxos from the live state)",
		Columns: []string{"metric", "measured", "paper"},
	}
	t.Addf("soundness invocations", res.Stats.SoundnessCalls, 773)
	t.Addf("avg time per invocation", res.Stats.AvgSoundnessCall().Round(time.Microsecond), "45 ms")
	t.Addf("event sequences checked", res.Stats.SequencesChecked, 427731)
	t.Addf("preliminary violations", res.Stats.PreliminaryViolations, "-")
	t.Addf("confirmed bugs", res.Stats.ConfirmedBugs, 1)
	t.Addf("cover-index hits", res.Stats.CoverIndexHits, "-")
	t.Addf("cover-index misses", res.Stats.CoverIndexMisses, "-")
	t.Addf("elapsed", res.Stats.Elapsed.Round(time.Millisecond), "11 s")
	return t, nil
}

// PaxosBug regenerates §5.5: the crafted live state plus the checker run
// that rediscovers the WiDS bug, with the witness schedule.
func PaxosBug(budget time.Duration) (*Table, error) {
	m, live, err := buggyFromLive()
	if err != nil {
		return nil, err
	}
	res := core.Check(m, live, core.Options{
		Invariant:      paxos.Agreement(),
		Reduction:      paxos.Reduction{},
		Budget:         budget,
		StopAtFirstBug: true,
	})
	t := &Table{
		Title:   "§5.5: the Paxos last-response bug",
		Columns: []string{"field", "value"},
	}
	if len(res.Bugs) == 0 {
		t.Add("result", "NOT FOUND within budget")
		return t, nil
	}
	bug := res.Bugs[0]
	t.Add("violation", bug.Violation.Detail)
	t.Addf("witness events", len(bug.Schedule))
	t.Addf("elapsed", res.Stats.Elapsed.Round(time.Millisecond))
	t.Addf("soundness calls", res.Stats.SoundnessCalls)
	for i, ev := range bug.Schedule {
		t.Add(fmt.Sprintf("step %d", i+1), ev.String())
	}
	t.Notes = append(t.Notes, "paper: detected 11 s into the checker run seeded with this exact live state")
	return t, nil
}

// OnePaxosBug regenerates §5.6: the ++ initialization bug in 1Paxos.
func OnePaxosBug(budget time.Duration) (*Table, error) {
	m := onepaxos.New(3, onepaxos.PlusPlusBug, onepaxos.Driver{})
	live, err := onepaxos.PaperLiveState(m)
	if err != nil {
		return nil, err
	}
	res := core.Check(m, live, core.Options{
		Invariant:      onepaxos.Agreement(),
		Reduction:      onepaxos.Reduction{},
		Budget:         budget,
		StopAtFirstBug: true,
	})
	t := &Table{
		Title:   "§5.6: the 1Paxos ++ initialization bug",
		Columns: []string{"field", "value"},
	}
	if len(res.Bugs) == 0 {
		t.Add("result", "NOT FOUND within budget")
		return t, nil
	}
	bug := res.Bugs[0]
	t.Add("violation", bug.Violation.Detail)
	t.Addf("elapsed", res.Stats.Elapsed.Round(time.Microsecond))
	for i, ev := range bug.Schedule {
		t.Add(fmt.Sprintf("step %d", i+1), ev.String())
	}
	t.Notes = append(t.Notes,
		"paper: N1, still believing itself leader and (because of the ++ bug) acceptor, decides v1 alone",
		"the node-local separation invariant flags the same bug instantly: leader == acceptor in the initial state")
	return t, nil
}

// OnlinePaxos runs the full online §5.5 pipeline: live lossy deployment,
// periodic snapshots, checker restarts, detection time.
func OnlinePaxos(seed int64, checkerBudget time.Duration, maxSimTime float64) *Table {
	m := paxos.New(3, paxos.LastResponseBug, paxos.ActiveIndex{})
	live := sim.New(sim.Config{
		Machine:   m,
		Net:       simnet.Config{Seed: seed, DropProb: 0.3},
		Seed:      seed + 1,
		AppPeriod: 60,
		App:       paxos.LiveApp(m.P),
	})
	rep := online.Run(live, online.Config{
		Machine:    m,
		Interval:   60,
		MaxSimTime: maxSimTime,
		Checker: core.Options{
			Invariant:      paxos.Agreement(),
			Reduction:      paxos.Reduction{},
			StopAtFirstBug: true,
			Budget:         checkerBudget,
			LocalBoundStep: 1,
			MaxLocalBound:  3,
		},
		StopAtFirstBug: true,
	})
	t := &Table{
		Title:   "§5.5 online: periodic checker restarts over a live lossy Paxos deployment",
		Columns: []string{"field", "value"},
	}
	t.Addf("checker restarts", len(rep.Runs))
	t.Addf("simulated time covered", fmt.Sprintf("%.0f s", rep.SimTime))
	if rep.FirstBug == nil {
		t.Add("result", "no violation detected")
		return t
	}
	t.Addf("detected at simulated time", fmt.Sprintf("%.0f s (paper: 1150 s)", rep.DetectionSimTime))
	t.Addf("checker wall time to detection", rep.DetectionWall.Round(time.Millisecond))
	t.Add("violation", rep.FirstBug.Violation.Detail)
	return t
}

// TreePrimer regenerates the §2 primer numbers: the global state count of
// Figure 3 against the system-state count of Figure 4, including the
// invalid combination rejected by soundness verification.
func TreePrimer() *Table {
	m := tree.NewPaperTree()
	inv := m.CausalityInvariant()
	start := model.InitialSystem(m)
	g := global.Check(m, start, global.Options{Invariant: inv})
	l := core.Check(m, start, core.Options{Invariant: inv})
	t := &Table{
		Title:   "§2 primer: the 5-node tree",
		Columns: []string{"metric", "global", "local"},
		Notes: []string{
			"paper (Figures 3 and 4): 12 global states (with duplicates) vs 4 system states, one of them the invalid ----r",
		},
	}
	t.Addf("states", g.Stats.GlobalStates, l.Stats.NodeStates)
	t.Addf("system states created", "-", l.Stats.SystemStates)
	t.Addf("transitions", g.Stats.Transitions, l.Stats.Transitions)
	t.Addf("preliminary violations", g.Stats.PreliminaryViolations, l.Stats.PreliminaryViolations)
	t.Addf("confirmed bugs", len(g.Bugs), len(l.Bugs))
	return t
}

// ChainAblation regenerates ablation A1 (§4.3): on a serial chain the
// local approach buys nothing, while on the broadcast-heavy Paxos space it
// wins by orders of magnitude.
func ChainAblation(budget time.Duration) *Table {
	ch := chain.New(5)
	chStart := model.InitialSystem(ch)
	gChain := global.Check(ch, chStart, global.Options{Invariant: ch.Causality(), Budget: budget})
	lChain := core.Check(ch, chStart, core.Options{Invariant: ch.Causality(), Budget: budget})

	px := oneProposal()
	pxStart := model.InitialSystem(px)
	gPaxos := global.Check(px, pxStart, global.Options{Invariant: paxos.Agreement(), Budget: budget})
	lPaxos := core.Check(px, pxStart, core.Options{Invariant: paxos.Agreement(), Reduction: paxos.Reduction{}, Budget: budget})

	t := &Table{
		Title:   "A1 (§4.3): chain vs broadcast — where the local approach pays off",
		Columns: []string{"workload", "global transitions", "LMC transitions", "ratio"},
		Notes: []string{
			"\"we could not expect much from LMC in a chain system in which each node simply forwards the input message\"",
		},
	}
	t.Addf("chain (serial)", gChain.Stats.Transitions, lChain.Stats.Transitions,
		fmt.Sprintf("%.1fx", float64(gChain.Stats.Transitions)/float64(max(1, lChain.Stats.Transitions))))
	t.Addf("paxos (broadcast)", gPaxos.Stats.Transitions, lPaxos.Stats.Transitions,
		fmt.Sprintf("%.1fx", float64(gPaxos.Stats.Transitions)/float64(max(1, lPaxos.Stats.Transitions))))
	return t
}

// DupAblation regenerates ablation A2 (§4.2): the duplicate-message limit.
func DupAblation(budget time.Duration) *Table {
	m := oneProposal()
	start := model.InitialSystem(m)
	t := &Table{
		Title:   "A2 (§4.2): duplicate-message limit",
		Columns: []string{"dup limit", "node states", "transitions", "I+ dropped", "elapsed"},
		Notes: []string{
			"the paper sets the limit to zero for all reported results",
		},
	}
	for _, lim := range []int{0, 1, 2} {
		res := core.Check(m, start, core.Options{
			Invariant: paxos.Agreement(),
			Reduction: paxos.Reduction{},
			DupLimit:  lim,
			Budget:    budget,
		})
		t.Addf(lim, res.Stats.NodeStates, res.Stats.Transitions,
			res.Stats.DuplicatesDropped, res.Stats.Elapsed.Round(time.Millisecond))
	}
	return t
}

// AdapterAblation measures ablation A6: the cost of the actorcheck
// interception seam —
// the hand-written twophase model against the semantically identical
// actordemo implementation checked through the adapter, under both LMC-GEN
// and LMC-OPT. The state spaces are isomorphic by construction, so any
// elapsed-time difference is pure adapter overhead — snapshot/restore per
// handler execution plus canonical-blob fingerprinting.
func AdapterAblation(budget time.Duration) *Table {
	t := &Table{
		Title:   "A6: model vs real implementation through the actorcheck adapter",
		Columns: []string{"config", "node states", "transitions", "system states", "elapsed", "trans/sec", "overhead"},
		Notes: []string{
			"identical state spaces: the adapter explores the real code, not a transcription",
			"overhead = adapter elapsed / model elapsed for the same strategy",
		},
	}
	throughput := func(r *core.Result) string {
		s := r.Stats.Elapsed.Seconds()
		if s <= 0 {
			return "-"
		}
		return fmt.Sprintf("%.0f", float64(r.Stats.Transitions)/s)
	}
	for _, strat := range []string{"gen", "opt"} {
		mdl := twophase.New(4, twophase.MajorityBug, 2)
		mo := core.Options{Invariant: twophase.Atomicity(), Budget: budget}
		ad := actordemo.NewAdapter(4, actordemo.MajorityBug, 2)
		ao := core.Options{Invariant: actordemo.Atomicity(ad), Budget: budget}
		if strat == "opt" {
			mo.Reduction = twophase.Reduction{}
			ao.Reduction = actordemo.Reduction{Ad: ad}
		}
		mres := core.Check(mdl, model.InitialSystem(mdl), mo)
		ares := core.Check(ad, model.InitialSystem(ad), ao)
		overhead := "-"
		if mres.Stats.Elapsed > 0 {
			overhead = fmt.Sprintf("%.2fx", float64(ares.Stats.Elapsed)/float64(mres.Stats.Elapsed))
		}
		t.Addf("model/"+strat, mres.Stats.NodeStates, mres.Stats.Transitions,
			mres.Stats.SystemStates, mres.Stats.Elapsed.Round(time.Microsecond), throughput(mres), "1.00x")
		t.Addf("adapter/"+strat, ares.Stats.NodeStates, ares.Stats.Transitions,
			ares.Stats.SystemStates, ares.Stats.Elapsed.Round(time.Microsecond), throughput(ares), overhead)
	}
	return t
}

// ParallelAblation regenerates ablation A3 (§1): system-state checking
// fanned out across workers, on the GEN configuration whose Cartesian
// products dominate.
func ParallelAblation(budget time.Duration, workers []int) *Table {
	m := oneProposal()
	start := model.InitialSystem(m)
	t := &Table{
		Title:   "A3 (§1): parallel system-state checking (LMC-GEN)",
		Columns: []string{"workers", "system states", "elapsed"},
	}
	for _, w := range workers {
		res := core.Check(m, start, core.Options{
			Invariant: paxos.Agreement(),
			Workers:   w,
			Budget:    budget,
		})
		t.Addf(w, res.Stats.SystemStates, res.Stats.Elapsed.Round(time.Millisecond))
	}
	return t
}
