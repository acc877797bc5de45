package shard

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"

	"lmc/internal/codec"
	"lmc/internal/core"
	"lmc/internal/model"
	"lmc/internal/spec"
)

// Workload is what a worker needs to rebuild the coordinator's run: the
// machine, the start state and any seeded in-flight messages. Invariants,
// reductions and budgets deliberately do not travel — a worker only
// explores, on the stripped replica core.NewShardWorker builds.
type Workload struct {
	Machine         model.Machine
	Start           model.SystemState
	InitialMessages []model.Message
	// Invariant is unread: the benchmark module's resolver still sets it.
	Invariant spec.Invariant
}

// Resolver turns the spec string from the coordinator's HELLO into a
// workload. Both sides of a deployment agree on a spec namespace — e.g.
// "bench:<name>" resolved by internal/bench — and the resolver is the only
// workload-construction code a worker binary needs.
type Resolver func(spec string) (Workload, error)

// dieAfterRoundEnv lets tests sever a re-exec'd worker mid-run: the worker
// exits instead of computing the round after the configured one, which the
// coordinator sees as an EOF while fetching records.
const dieAfterRoundEnv = "LMC_SHARD_DIE_AFTER_ROUND"

// RunWorker serves the shard-worker protocol on stdin/stdout. This is the
// body of a binary's -shard-worker mode; it returns when the coordinator
// finishes (nil) or on a transport/protocol error. Nothing else may write
// to stdout while it runs.
func RunWorker(resolve Resolver) error {
	die := 0
	if v := os.Getenv(dieAfterRoundEnv); v != "" {
		die, _ = strconv.Atoi(v)
	}
	return ServeConn(struct {
		io.Reader
		io.Writer
	}{os.Stdin, os.Stdout}, resolve, die)
}

// ServeConn runs the worker side of the protocol over rw: HELLO→READY
// handshake, then one autonomous round stream per PASS. A DONE frame, a
// clean EOF, or a closed pipe at any receive point ends the session with
// nil; so does ANY send failure after the handshake — the only peer is the
// coordinator, and a coordinator that stopped reading has stopped or
// degraded, which must not look like a worker failure. dieAfterRound > 0
// makes the worker exit instead of computing that round of each pass (test
// hook for the degradation path).
func ServeConn(rw io.ReadWriter, resolve Resolver, dieAfterRound int) error {
	c := newConn(rw)

	ft, r, err := c.recv()
	if err != nil {
		return fmt.Errorf("shard worker: reading HELLO: %w", err)
	}
	if ft != ftHello {
		return fmt.Errorf("shard worker: expected HELLO, got %s", ft)
	}
	h := decodeHello(r)
	if r.Err() != nil {
		return fmt.Errorf("shard worker: bad HELLO: %w", r.Err())
	}
	if h.Version != Version {
		return refuseErr(c,
			fmt.Sprintf("protocol version %d, worker speaks %d", h.Version, Version),
			ErrVersionMismatch)
	}
	if h.Count < 2 || h.Idx < 1 || h.Idx >= h.Count {
		return refuse(c, fmt.Sprintf("bad shard coordinates %d/%d", h.Idx, h.Count))
	}
	batch := h.Batch
	if batch < 1 {
		batch = 1
	}
	wl, err := resolve(h.Spec)
	if err != nil {
		return refuse(c, fmt.Sprintf("resolving workload %q: %v", h.Spec, err))
	}
	sink := &frameSink{c: c, batch: batch, dieAfterRound: dieAfterRound}
	w := core.NewShardWorker(wl.Machine, wl.Start, core.Options{
		DupLimit:        h.DupLimit,
		LocalBound:      h.LocalBound,
		MaxPathDepth:    h.MaxPathDepth,
		MaxTransitions:  h.MaxTransitions,
		InitialMessages: wl.InitialMessages,
	}, h.Idx, h.Count, sink)
	if err := c.send(ftReady, nil); err != nil {
		return fmt.Errorf("shard worker: sending READY: %w", err)
	}

	for {
		ft, r, err := c.recv()
		if err != nil {
			if cleanShutdown(err) {
				return nil
			}
			return fmt.Errorf("shard worker: %w", err)
		}
		switch ft {
		case ftDone:
			return nil
		case ftPass:
			r.Int() // pass number, informational
			bound := r.Int()
			if r.Err() != nil {
				return fmt.Errorf("shard worker: bad PASS: %w", r.Err())
			}
			// Stream the pass's rounds on our own clock; the coordinator
			// reads RECORDS(r) at its round r and DIGEST(r) at each batch
			// boundary, in exactly the order the sink writes them.
			if err := w.RunPass(bound); errors.Is(err, errCoordinatorGone) {
				return nil
			} else if err != nil {
				return err
			}
			// Pass fixpoint or replicated stop: park for the next PASS or
			// DONE.
		default:
			return fmt.Errorf("shard worker: unexpected %s", ft)
		}
	}
}

// errCoordinatorGone marks a send failure after the handshake.
var errCoordinatorGone = errors.New("shard worker: coordinator stopped reading")

// frameSink is the worker replica's round sink: every round becomes one
// RECORDS frame, and — on completed rounds at the digest cadence — one
// DIGEST frame. A round cut short by the transition budget sends no digest:
// the coordinator hits the same budget at the same transition and stops
// without a digest exchange.
type frameSink struct {
	c             *conn
	batch         int
	dieAfterRound int
}

func (s *frameSink) EndRound(round int, progress, complete bool, b core.RoundBatch, d core.ShardDigest) error {
	err := s.c.send(ftRecords, func(cw *codec.Writer) { encodeFrameRecords(cw, round, progress, b) })
	if err == nil && complete && digestDue(round, s.batch, !progress) {
		err = s.c.send(ftDigest, func(cw *codec.Writer) { encodeFrameDigest(cw, round, d) })
	}
	if err != nil {
		return errCoordinatorGone
	}
	if round == s.dieAfterRound && progress && complete {
		return fmt.Errorf("shard worker: dying before round %d (test hook)", round+1)
	}
	return nil
}

// refuse reports a worker-side failure to the coordinator (best-effort) and
// returns it as the serve error.
func refuse(c *conn, msg string) error {
	_ = c.send(ftError, func(w *codec.Writer) { w.String(msg) })
	return errors.New("shard worker: " + msg)
}

// refuseErr is refuse with a typed cause, so callers can errors.Is the
// serve error (used for ErrVersionMismatch).
func refuseErr(c *conn, msg string, cause error) error {
	_ = c.send(ftError, func(w *codec.Writer) { w.String(msg) })
	return fmt.Errorf("shard worker: %s: %w", msg, cause)
}

// cleanShutdown reports whether a receive error means the coordinator closed
// the transport on purpose: EOF on a frame boundary, or the closed half of
// an in-process pipe.
func cleanShutdown(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrClosedPipe)
}
