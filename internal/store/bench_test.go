package store_test

import (
	"fmt"
	"path/filepath"
	"testing"

	"lmc/internal/core"
	"lmc/internal/model"
	"lmc/internal/protocols/paxos"
	"lmc/internal/store"
)

// nullSink accepts checkpoints without storing them: benchmarking against
// it isolates the engine-side capture cost from the store's encode+write.
type nullSink struct{}

func (nullSink) OnRoundCheckpoint(core.RoundCheckpoint) error { return nil }

// BenchmarkCheckpointOverhead decomposes the cost of per-round
// checkpointing on the sequential Paxos GEN run: plain (no sink) vs
// null-sink (the replica digest and the counter snapshot — the engine's
// share) vs store-sink (plus encode, frame write — the store's share). The repo benchmark's serve-resume workload measures the end-to-end
// cost; this benchmark says which layer to blame when it moves.
func BenchmarkCheckpointOverhead(b *testing.B) {
	run := func(b *testing.B, sink func(i int) core.CheckpointSink) {
		for i := 0; i < b.N; i++ {
			m := paxos.New(3, paxos.NoBug, paxos.OnceAt{Node: 0, Index: 0, Value: 7})
			opt := core.Options{
				Invariant: paxos.Agreement(),
			}
			if sink != nil {
				opt.Checkpoint = sink(i)
			}
			res := core.Check(m, model.InitialSystem(m), opt)
			if !res.Complete {
				b.Fatal("run incomplete")
			}
		}
	}
	b.Run("plain", func(b *testing.B) {
		b.ReportAllocs()
		run(b, nil)
	})
	b.Run("null-sink", func(b *testing.B) {
		b.ReportAllocs()
		run(b, func(int) core.CheckpointSink { return nullSink{} })
	})
	b.Run("store-sink", func(b *testing.B) {
		dir := b.TempDir()
		b.ReportAllocs()
		run(b, func(i int) core.CheckpointSink {
			st, err := store.Open(filepath.Join(dir, fmt.Sprintf("b%d.lmcstore", i)))
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { st.Close() })
			if err := st.CreateRun("bench", "paxos-gen", 1, 1); err != nil {
				b.Fatal(err)
			}
			return st.Sink("bench")
		})
	})
}
