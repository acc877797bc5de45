// Scalability: the paper's §5.2 experiment. On the two-proposal Paxos
// space (two nodes competing for the same index) the exponential explosion
// eventually catches both checkers: neither finishes; the interesting
// number is how deep each gets within a fixed budget. The paper, after
// hours: B-DFS reached depth 20 of 41, LMC depth 39 of 68, with soundness
// verification the dominant cost on the LMC side.
//
// Both depths are on the coordinates of Figures 10–12: B-DFS reports its
// global event depth, LMC the sum over nodes of the deepest visited path
// (the last sample of its series). LMC's Stats.MaxDepth is a different
// number here: the run materializes no system state, so it is the deepest
// single-node path.
package main

import (
	"flag"
	"fmt"
	"time"

	"lmc"
	"lmc/internal/protocols/paxos"
)

func main() {
	budget := flag.Duration("budget", 15*time.Second, "budget per checker")
	flag.Parse()

	m := paxos.New(3, paxos.NoBug, paxos.EachOnce{Nodes: []lmc.NodeID{0, 1}, Index: 0})
	start := lmc.InitialSystem(m)

	fmt.Printf("two-proposal Paxos space, %v per checker\n\n", *budget)

	g := lmc.Global(m, start, lmc.GlobalOptions{
		Invariant: paxos.Agreement(),
		Strategy:  lmc.BFS,
		Budget:    *budget,
	})
	fmt.Printf("B-DFS:   depth %2d, %8d transitions, %8d global states, complete=%v\n",
		g.Stats.MaxDepth, g.Stats.Transitions, g.Stats.GlobalStates, g.Complete)

	l := lmc.Check(m, start, lmc.Options{
		Invariant:      paxos.Agreement(),
		Reduction:      paxos.Reduction{},
		Budget:         *budget,
		LocalBoundStep: 1,
		MaxLocalBound:  4,
		RecordSeries:   true,
	})
	depth := 0
	if pts := l.Series.Points(); len(pts) > 0 {
		depth = pts[len(pts)-1].Depth
	}
	fmt.Printf("LMC-OPT: depth %2d, %8d transitions, %8d node states,   complete=%v\n",
		depth, l.Stats.Transitions, l.Stats.NodeStates, l.Complete)
	fmt.Printf("         soundness: %d calls, %v total, %d sequences\n",
		l.Stats.SoundnessCalls, l.Stats.SoundnessTime.Round(time.Millisecond),
		l.Stats.SequencesChecked)
	fmt.Println()
	fmt.Println("paper: after hours, B-DFS explored to depth 20 (of 41) and LMC to 39")
	fmt.Println("(of 68); \"the major contributor to the slowdown of LMC is the")
	fmt.Println("expensive task of soundness verification\" — visible above.")
}
