// Checking a real implementation: the actorcheck adapter wraps an
// actor-style Go program — a mailbox handler loop that was NOT written
// against the model.Machine interface — and lets the local checker explore
// its real handler code against the shared network I+.
//
// The walkthrough: build the buggy register (a 2PC coordinator that
// wrongly commits on a majority), find the atomicity violation with both
// LMC-GEN and LMC-OPT, re-drive the witness schedule through the
// UNINSTRUMENTED implementation to prove the bug is in the code and not in
// the interception seam, and finally emit the witness as a committed-style
// JSON repro artifact.
package main

import (
	"fmt"
	"os"

	"lmc"
	"lmc/internal/actordemo"
)

func main() {
	// Four nodes: node 0 coordinates, node 2 is scripted to refuse. With
	// MajorityBug the coordinator commits on 3 of 4 votes, so the refuser
	// aborts while the rest commit — an atomicity violation.
	ad := actordemo.NewAdapter(4, actordemo.MajorityBug, 2)
	inv := actordemo.Atomicity(ad)
	start := lmc.InitialSystem(ad)

	fmt.Println("A real actor-style 2PC implementation, checked through the")
	fmt.Println("actorcheck adapter. Node 2 refuses; the buggy coordinator")
	fmt.Println("commits on a majority anyway.")
	fmt.Println()

	gen := lmc.Check(ad, start, lmc.Options{Invariant: inv})
	fmt.Printf("LMC-GEN: %d node states, %d transitions, %d confirmed bug(s)\n",
		gen.Stats.NodeStates, gen.Stats.Transitions, gen.Stats.ConfirmedBugs)

	opt := lmc.Check(ad, start, lmc.Options{
		Invariant: inv, Reduction: actordemo.Reduction{Ad: ad}})
	fmt.Printf("LMC-OPT: %d node states, %d transitions, %d confirmed bug(s)\n",
		opt.Stats.NodeStates, opt.Stats.Transitions, opt.Stats.ConfirmedBugs)

	if len(gen.Bugs) == 0 || len(opt.Bugs) == 0 {
		fmt.Println("expected both strategies to confirm the bug")
		os.Exit(1)
	}
	bug := gen.Bugs[0]
	fmt.Println()
	fmt.Printf("witness (%d events) for %q:\n", len(bug.Schedule), bug.Violation.Invariant)
	fmt.Print(bug.Schedule.String())

	// The decisive step: replay the witness on the raw implementation with
	// no interception, memoization or snapshotting in the loop. Reaching
	// the same final state proves the bug lives in the actor's code.
	final, err := ad.ReplayRaw(start, nil, bug.Schedule)
	if err != nil {
		fmt.Println("uninstrumented replay failed:", err)
		os.Exit(1)
	}
	if final.Fingerprint() != bug.System.Fingerprint() {
		fmt.Println("uninstrumented replay diverged from the witness state")
		os.Exit(1)
	}
	if v := inv.Check(final); v == nil {
		fmt.Println("uninstrumented replay did not violate the invariant")
		os.Exit(1)
	}
	fmt.Println("(uninstrumented implementation replays to the same violating state)")

	// The witness serializes to a self-contained JSON artifact — the same
	// format the golden-trace test commits under testdata/.
	raw, err := ad.MarshalWitness(bug.Violation.Invariant, bug.System.Fingerprint(), bug.Schedule)
	if err != nil {
		fmt.Println("marshal witness:", err)
		os.Exit(1)
	}
	fmt.Println()
	fmt.Printf("JSON repro artifact (%d bytes):\n", len(raw))
	os.Stdout.Write(raw)
}
