// Package shard runs the checker's exploration across multiple OS
// processes, split by fingerprint range. Config.Shards names the TOTAL
// process count: the coordinator owns shard 0 and runs the full canonical
// engine; each worker process (shards 1..n-1) holds a replica of the run,
// executes the action and delivery steps whose parent-state fingerprint
// falls in its range while it walks, and streams fingerprint-only records
// back over a length-prefixed wire protocol (stdin/stdout of re-exec'd
// children). Workers run each pass's rounds autonomously — several rounds
// ahead of the coordinator under Config.Batch — and exchange replica
// digests only at batch boundaries. The records are hints consumed by the
// coordinator's canonical walk — any subset yields the bit-for-bit
// sequential result — so a dead or diverging worker degrades the run to
// in-process exploration instead of corrupting or aborting it. See
// internal/core/roundlog.go for the engine-side contract.
//
// The package is an experiment, not a product path: on every paired reading
// a fleet was slower to verdict than the same check in one process
// (EXPERIMENTS.md A8), so nothing calls Check but the repo benchmark's
// shard2-explore workload and the tests here.
package shard

import (
	"context"

	"lmc/internal/core"
	"lmc/internal/model"
)

// DefaultBatch is the digest cadence used when Config.Batch is unset:
// workers run this many rounds per digest exchange, which bounds how far a
// diverged replica can run before the mismatch is caught while amortizing
// the per-round synchronization.
const DefaultBatch = 8

// Config describes the fleet for one sharded run.
type Config struct {
	// Shards is the total process count, the coordinator included: Shards=2
	// is the coordinator plus one worker. Values <= 1 mean no fleet: Check
	// runs the ordinary in-process checker.
	Shards int
	// Spawner produces worker transports (SelfExec in production,
	// PipeSpawner in tests).
	Spawner Spawner
	// Spec is the workload spec the workers resolve (e.g. "bench:paxos").
	// It must reconstruct the same machine and start state the coordinator
	// was given.
	Spec string
	// Batch is the digest cadence in rounds (<= 0 means DefaultBatch).
	// Every value yields identical results; larger batches trade later
	// divergence detection for fewer synchronization stalls.
	Batch int
}

// Check runs a sharded exploration: identical results to core.Check for any
// shard count. The fleet is dialed when the run begins its first pass and
// torn down before it stops its clock, so Stats.Elapsed covers both and
// Stats.ShardWaitTime books them. If the fleet cannot be dialed — spawn
// failure, handshake refusal, resolver error on the worker side — the run
// degrades to in-process exploration with a KindShardDegraded event, as a
// mid-run worker failure does.
func Check(ctx context.Context, m model.Machine, start model.SystemState,
	opt core.Options, cfg Config) (*core.Result, error) {

	if cfg.Shards <= 1 || cfg.Spawner == nil {
		return core.CheckContext(ctx, m, start, opt)
	}
	return core.CheckShardedContext(ctx, m, start, opt, newLink(cfg, opt))
}
