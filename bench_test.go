// Benchmarks regenerating the paper's evaluation artifacts (§5), one per
// table/figure, plus the ablations of DESIGN.md. Run with
//
//	go test -bench=. -benchmem
//
// Figure-producing runs also print their table once per benchmark (the
// numbers the EXPERIMENTS.md comparison is built from) when -v is set via
// the EXPERIMENTS_PRINT environment variable.
package lmc_test

import (
	"fmt"
	"io"
	"log/slog"
	"os"
	"testing"
	"time"

	"lmc"
	"lmc/internal/actordemo"
	"lmc/internal/bench"
	"lmc/internal/protocols/onepaxos"
	"lmc/internal/protocols/paxos"
	"lmc/internal/protocols/twophase"
)

// printTables controls whether benchmarks dump their tables to stdout.
var printTables = os.Getenv("EXPERIMENTS_PRINT") != ""

func dump(b *testing.B, t *bench.Table) {
	if printTables {
		t.Fprint(os.Stdout)
	}
	_ = b
}

// oneProposal builds the §5.1 space.
func oneProposal() (*paxos.Machine, lmc.SystemState) {
	m := paxos.New(3, paxos.NoBug, paxos.OnceAt{Node: 0, Index: 0, Value: 7})
	return m, lmc.InitialSystem(m)
}

// BenchmarkFig10BDFS measures the baseline global exploration of the
// one-proposal Paxos space (the B-DFS curve of Figure 10).
func BenchmarkFig10BDFS(b *testing.B) {
	m, start := oneProposal()
	for i := 0; i < b.N; i++ {
		res := lmc.Global(m, start, lmc.GlobalOptions{Invariant: paxos.Agreement()})
		if !res.Complete || len(res.Bugs) != 0 {
			b.Fatalf("unexpected result: %+v", res.Stats)
		}
	}
}

// BenchmarkFig10LMCGen measures the general local checker on the same
// space (the LMC-GEN curve of Figure 10).
func BenchmarkFig10LMCGen(b *testing.B) {
	m, start := oneProposal()
	for i := 0; i < b.N; i++ {
		res := lmc.Check(m, start, lmc.Options{Invariant: paxos.Agreement()})
		if !res.Complete || len(res.Bugs) != 0 {
			b.Fatalf("unexpected result: %+v", res.Stats)
		}
	}
}

// BenchmarkFig10LMCOpt measures the invariant-optimized local checker (the
// LMC-OPT curve of Figure 10; paper speedup ~8000x over B-DFS).
func BenchmarkFig10LMCOpt(b *testing.B) {
	m, start := oneProposal()
	for i := 0; i < b.N; i++ {
		res := lmc.Check(m, start, lmc.Options{
			Invariant: paxos.Agreement(),
			Reduction: paxos.Reduction{},
		})
		if !res.Complete || len(res.Bugs) != 0 {
			b.Fatalf("unexpected result: %+v", res.Stats)
		}
	}
}

// BenchmarkFig11StateCounts regenerates the state-count series of
// Figure 11 (and prints it under EXPERIMENTS_PRINT).
func BenchmarkFig11StateCounts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dump(b, bench.Fig11(time.Minute))
	}
}

// BenchmarkFig12Memory regenerates the memory series of Figure 12.
func BenchmarkFig12Memory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dump(b, bench.Fig12(time.Minute))
	}
}

// BenchmarkFig13Overheads regenerates the buggy-Paxos overhead breakdown
// of Figure 13 (full vs no-soundness vs exploration-only).
func BenchmarkFig13Overheads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := bench.Fig13(10 * time.Second)
		if err != nil {
			b.Fatal(err)
		}
		dump(b, t)
	}
}

// BenchmarkTransitionsTable regenerates the §5.1 transition-count
// comparison (paper: 157,332 vs 1,186, ~132x).
func BenchmarkTransitionsTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dump(b, bench.Transitions(time.Minute))
	}
}

// BenchmarkScalabilityTwoProposals regenerates the §5.2 two-proposal
// experiment with a small budget per checker.
func BenchmarkScalabilityTwoProposals(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dump(b, bench.Scalability(3*time.Second))
	}
}

// BenchmarkPaxosBugDetection measures rediscovering the §5.5 bug from the
// paper's live state (paper: 11 s into the run).
func BenchmarkPaxosBugDetection(b *testing.B) {
	m := paxos.New(3, paxos.LastResponseBug, paxos.ActiveIndex{MaxPerNode: 1})
	live, err := paxos.PaperLiveState(m)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		res := lmc.Check(m, live, lmc.Options{
			Invariant:      paxos.Agreement(),
			Reduction:      paxos.Reduction{},
			StopAtFirstBug: true,
			Budget:         time.Minute,
		})
		if len(res.Bugs) == 0 {
			b.Fatalf("bug not found: %+v", res.Stats)
		}
	}
}

// BenchmarkOnePaxosBugDetection measures rediscovering the §5.6 ++ bug
// from its live state (paper: found within a 225 s online session).
func BenchmarkOnePaxosBugDetection(b *testing.B) {
	m := onepaxos.New(3, onepaxos.PlusPlusBug, onepaxos.Driver{})
	live, err := onepaxos.PaperLiveState(m)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		res := lmc.Check(m, live, lmc.Options{
			Invariant:      onepaxos.Agreement(),
			Reduction:      onepaxos.Reduction{},
			StopAtFirstBug: true,
			Budget:         time.Minute,
		})
		if len(res.Bugs) == 0 {
			b.Fatalf("bug not found: %+v", res.Stats)
		}
	}
}

// BenchmarkTreePrimer measures the §2 primer end to end (Figures 3 and 4).
func BenchmarkTreePrimer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dump(b, bench.TreePrimer())
	}
}

// BenchmarkChainAblation measures A1: chain vs broadcast.
func BenchmarkChainAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dump(b, bench.ChainAblation(time.Minute))
	}
}

// BenchmarkDupAblation measures A2: the duplicate-message limit.
func BenchmarkDupAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dump(b, bench.DupAblation(time.Minute))
	}
}

// BenchmarkPaxosGEN measures the observer layer's overhead on the §5.1 GEN
// run: nil observer (the fast path the ≤2% budget protects), a slog
// observer into a discard handler (event production without terminal I/O),
// and the expvar observer. EXPERIMENTS.md tabulates the ratios.
func BenchmarkPaxosGEN(b *testing.B) {
	discard := lmc.NewLogObserver(slog.New(slog.NewTextHandler(io.Discard, nil)))
	cases := []struct {
		name string
		obs  lmc.Observer
	}{
		{"nil", nil},
		{"obs-log", discard},
		{"obs-expvar", lmc.NewExpvarObserver("lmc_bench_test")},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			m, start := oneProposal()
			for i := 0; i < b.N; i++ {
				res := lmc.Check(m, start, lmc.Options{
					Invariant: paxos.Agreement(),
					Observer:  tc.obs,
				})
				if !res.Complete || len(res.Bugs) != 0 {
					b.Fatalf("unexpected result: %+v", res.Stats)
				}
			}
		})
	}
}

// BenchmarkAdapterAblation measures A4: the actorcheck interception seam's
// overhead — the hand-written 2PC model vs the semantically identical real
// implementation checked through the adapter, for both strategies. The
// state spaces are isomorphic, so the time ratio is pure adapter cost
// (snapshot/restore per handler execution plus blob fingerprinting).
func BenchmarkAdapterAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dump(b, bench.AdapterAblation(time.Minute))
	}
}

// BenchmarkActor2PC pins the two halves of the A4 comparison as separate
// entries so `go test -bench Actor2PC` shows the ns/op gap directly.
func BenchmarkActor2PC(b *testing.B) {
	b.Run("model", func(b *testing.B) {
		m := twophase.New(4, twophase.NoBug, 2)
		start := lmc.InitialSystem(m)
		for i := 0; i < b.N; i++ {
			res := lmc.Check(m, start, lmc.Options{
				Invariant: twophase.Atomicity()})
			if !res.Complete || len(res.Bugs) != 0 {
				b.Fatalf("unexpected result: %+v", res.Stats)
			}
		}
	})
	b.Run("adapter", func(b *testing.B) {
		ad := actordemo.NewAdapter(4, actordemo.NoBug, 2)
		start := lmc.InitialSystem(ad)
		for i := 0; i < b.N; i++ {
			res := lmc.Check(ad, start, lmc.Options{
				Invariant: actordemo.Atomicity(ad)})
			if !res.Complete || len(res.Bugs) != 0 {
				b.Fatalf("unexpected result: %+v", res.Stats)
			}
		}
	})
}

// BenchmarkParallelCheck measures A3: worker fan-out for system-state
// checking on the GEN configuration.
func BenchmarkParallelCheck(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			m, start := oneProposal()
			for i := 0; i < b.N; i++ {
				res := lmc.Check(m, start, lmc.Options{
					Invariant: paxos.Agreement(),
					Workers:   workers,
				})
				if !res.Complete {
					b.Fatalf("incomplete: %+v", res.Stats)
				}
			}
		})
	}
}
