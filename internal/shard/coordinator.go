package shard

import (
	"fmt"
	"io"

	"lmc/internal/codec"
	"lmc/internal/core"
)

// remoteWorker is the coordinator's handle on one worker. parked tracks
// whether the worker is known to be blocked in its top-level receive (just
// handshaken, or parked at a pass fixpoint): only a parked worker can be
// handed a DONE frame without deadlocking an unbuffered transport —
// everyone else is torn down by closing the stream, which fails their
// blocked read or write (workers treat both as a clean shutdown).
type remoteWorker struct {
	conn   *conn
	rwc    io.ReadWriteCloser
	parked bool
}

// link implements core.ShardLink over the wire protocol. All methods run on
// the checker's sequential merge goroutine; any error returned makes the
// checker degrade (Finish, continue in-process), so methods never retry.
// Frame order is deterministic on both sides — per pass, each worker writes
// RECORDS(r) for every round r and DIGEST(r) exactly at batch boundaries
// and the fixpoint, and the coordinator reads in the same order — so
// replica divergence surfaces as a digest or frame-type mismatch, never
// as a deadlock.
type link struct {
	spawner Spawner
	hello   hello
	dialed  bool
	ws      []*remoteWorker
	n       int // total process count, coordinator included
	batch   int
}

// newLink prepares the fleet's link; the first BeginPass dials it.
func newLink(cfg Config, opt core.Options) *link {
	batch := cfg.Batch
	if batch <= 0 {
		batch = DefaultBatch
	}
	return &link{spawner: cfg.Spawner, n: cfg.Shards, batch: batch, hello: hello{
		Version:        Version,
		Spec:           cfg.Spec,
		Count:          cfg.Shards,
		DupLimit:       opt.DupLimit,
		LocalBound:     opt.LocalBound,
		MaxPathDepth:   opt.MaxPathDepth,
		MaxTransitions: opt.MaxTransitions,
		Batch:          batch,
	}}
}

// dial spawns and handshakes the fleet: workers take shard indices
// 1..cfg.Shards-1, the coordinator keeps shard 0. HELLOs go out to every
// worker before any READY is collected, so workers build their replicas
// concurrently. On any failure the already-spawned workers are torn down
// and the error names the shard.
func (l *link) dial() error {
	for i := 1; i < l.n; i++ {
		rwc, err := l.spawner.Spawn(i, l.n)
		if err != nil {
			l.Finish()
			return fmt.Errorf("shard %d: spawn: %w", i, err)
		}
		l.ws = append(l.ws, &remoteWorker{conn: newConn(rwc), rwc: rwc})
	}
	for wi, w := range l.ws {
		hi := l.hello
		hi.Idx = wi + 1
		if err := w.conn.send(ftHello, hi.encode); err != nil {
			l.Finish()
			return fmt.Errorf("shard %d: sending HELLO: %w", wi+1, err)
		}
	}
	for wi, w := range l.ws {
		ft, r, err := w.conn.recv()
		if err != nil {
			l.Finish()
			return fmt.Errorf("shard %d: handshake: %w", wi+1, err)
		}
		switch ft {
		case ftReady:
			w.parked = true
		case ftError:
			msg := r.String()
			l.Finish()
			return fmt.Errorf("shard %d: %s", wi+1, msg)
		default:
			l.Finish()
			return fmt.Errorf("shard %d: expected READY, got %s", wi+1, ft)
		}
	}
	return nil
}

func (l *link) Shards() int { return l.n }

// BeginPass releases every worker into autonomous round streaming: after
// this frame, the next coordinator I/O with each worker is FetchRound(1).
// The first call dials the fleet.
func (l *link) BeginPass(pass, bound int) error {
	if !l.dialed {
		l.dialed = true
		if err := l.dial(); err != nil {
			return err
		}
	}
	for wi, w := range l.ws {
		w.parked = false
		err := w.conn.send(ftPass, func(cw *codec.Writer) {
			cw.Int(pass)
			cw.Int(bound)
		})
		if err != nil {
			return fmt.Errorf("shard %d: sending PASS: %w", wi+1, err)
		}
	}
	return nil
}

// FetchRound reads each worker's RECORDS frame for round. The workers
// computed the round on their own clock — often while the coordinator was
// still walking the previous one — so this is usually a buffered read, not
// a wait. Batches decoded before an error are returned with it, and the
// checker consumes them: records are hints, so a partial fetch loses
// speedup, not correctness.
func (l *link) FetchRound(round int) ([]core.RoundBatch, error) {
	out := make([]core.RoundBatch, 0, len(l.ws))
	for wi, w := range l.ws {
		ft, r, err := w.conn.recv()
		if err != nil {
			return out, fmt.Errorf("shard %d: fetching round %d: %w", wi+1, round, err)
		}
		if ft == ftError {
			return out, fmt.Errorf("shard %d: %s", wi+1, r.String())
		}
		if ft != ftRecords {
			return out, fmt.Errorf("shard %d: expected RECORDS, got %s", wi+1, ft)
		}
		gotRound, _, batch := decodeFrameRecords(r)
		if r.Err() != nil {
			return out, fmt.Errorf("shard %d: bad RECORDS: %w", wi+1, r.Err())
		}
		if gotRound != round {
			return out, fmt.Errorf("shard %d: RECORDS for round %d, want %d", wi+1, gotRound, round)
		}
		out = append(out, batch)
	}
	return out, nil
}

// EndRound reads and checks each worker's DIGEST on the rounds the workers
// send one — every batch-th round and the pass fixpoint (final) — and is a
// no-op on the rounds in between. final means the workers park after this
// digest, so they become DONE-deliverable.
func (l *link) EndRound(round int, d core.ShardDigest, final bool) error {
	if !digestDue(round, l.batch, final) {
		return nil
	}
	for wi, w := range l.ws {
		ft, r, err := w.conn.recv()
		if err != nil {
			return fmt.Errorf("shard %d: collecting digest: %w", wi+1, err)
		}
		if ft == ftError {
			return fmt.Errorf("shard %d: %s", wi+1, r.String())
		}
		if ft != ftDigest {
			return fmt.Errorf("shard %d: expected DIGEST, got %s", wi+1, ft)
		}
		gotRound, wd := decodeFrameDigest(r)
		if r.Err() != nil {
			return fmt.Errorf("shard %d: bad DIGEST: %w", wi+1, r.Err())
		}
		if gotRound != round {
			return fmt.Errorf("shard %d: DIGEST for round %d, want %d", wi+1, gotRound, round)
		}
		if final {
			w.parked = true
		}
		if wd != d {
			return fmt.Errorf("shard %d: replica diverged by round %d: worker %+v, coordinator %+v",
				wi+1, round, wd, d)
		}
	}
	return nil
}

// digestDue is the digest cadence both ends of the protocol follow: every
// batch-th round of a pass, and its fixpoint round.
func digestDue(round, batch int, final bool) bool {
	return final || round%batch == 0
}

// Finish tears the fleet down. Parked workers get a best-effort DONE so
// they exit through the clean path; everyone is then closed, which unblocks
// any worker mid-send or mid-receive (procConn.Close also reaps the child).
func (l *link) Finish() {
	for _, w := range l.ws {
		if w.parked {
			_ = w.conn.send(ftDone, nil)
		}
		_ = w.rwc.Close()
	}
	l.ws = nil
}
