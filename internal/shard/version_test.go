package shard

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"lmc/internal/codec"
	"lmc/internal/core"
	"lmc/internal/model"
	"lmc/internal/obs"
	"lmc/internal/protocols/tree"
)

// TestVersionMismatchRefused: a worker handed a HELLO with a different
// protocol version must refuse it with the typed ErrVersionMismatch, after
// sending a best-effort ERROR frame the coordinator can read.
func TestVersionMismatchRefused(t *testing.T) {
	coordR, workerW := io.Pipe()
	workerR, coordW := io.Pipe()
	errCh := make(chan error, 1)
	go func() {
		errCh <- ServeConn(struct {
			io.Reader
			io.Writer
		}{workerR, workerW}, func(spec string) (Workload, error) {
			return Workload{}, errors.New("resolver must not run on a refused handshake")
		}, 0)
	}()

	c := newConn(struct {
		io.Reader
		io.Writer
	}{coordR, coordW})
	h := hello{Version: Version + 1, Spec: "bench:paxos", Idx: 1, Count: 2}
	if err := c.send(ftHello, h.encode); err != nil {
		t.Fatalf("sending skewed HELLO: %v", err)
	}
	ft, r, err := c.recv()
	if err != nil {
		t.Fatalf("reading refusal: %v", err)
	}
	if ft != ftError {
		t.Fatalf("expected ERROR frame, got %s", ft)
	}
	if msg := r.String(); !strings.Contains(msg, "version") {
		t.Fatalf("refusal does not name the version: %q", msg)
	}
	if err := <-errCh; !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("serve error is not ErrVersionMismatch: %v", err)
	}
	_ = coordW.Close()
	_ = coordR.Close()
}

// skewSpawner simulates a fleet built from a different release: each
// "worker" reads the HELLO and refuses it the way a version-skewed
// ServeConn would, with an ERROR frame naming the version.
type skewSpawner struct{}

func (skewSpawner) Spawn(idx, count int) (io.ReadWriteCloser, error) {
	coordR, workerW := io.Pipe()
	workerR, coordW := io.Pipe()
	go func() {
		c := newConn(struct {
			io.Reader
			io.Writer
		}{workerR, workerW})
		ft, _, err := c.recv()
		if err == nil && ft == ftHello {
			_ = c.send(ftError, func(w *codec.Writer) {
				w.String(fmt.Sprintf("protocol version %d, worker speaks %d", Version, Version+1))
			})
		}
		_ = workerW.Close()
		_ = workerR.Close()
	}()
	return &pipeConn{r: coordR, w: coordW}, nil
}

// TestVersionSkewDegrades: a coordinator dialing a version-skewed fleet must
// degrade to the in-process checker — reporting KindShardDegraded with the
// worker's refusal — and still produce the sequential result.
func TestVersionSkewDegrades(t *testing.T) {
	m := tree.NewPaperTree()
	start := model.InitialSystem(m)
	opt := core.Options{Invariant: m.CausalityInvariant()}
	base := core.Check(m, start, opt)

	var degraded int
	var detail string
	opt.Observer = obs.FuncObserver(func(e obs.Event) {
		if e.Kind == obs.KindShardDegraded {
			degraded++
			detail = e.Detail
		}
	})
	res, err := Check(context.Background(), m, start, opt, Config{
		Shards:  2,
		Spawner: skewSpawner{},
		Spec:    "unused",
	})
	if err != nil {
		t.Fatal(err)
	}
	if degraded != 1 {
		t.Fatalf("want exactly one degradation event, got %d", degraded)
	}
	if !strings.Contains(detail, "version") {
		t.Fatalf("degradation detail does not name the version: %q", detail)
	}
	if res.Stats.Transitions != base.Stats.Transitions ||
		res.Stats.SystemStates != base.Stats.SystemStates ||
		res.Complete != base.Complete {
		t.Fatalf("degraded run diverged from sequential:\nseq: %s\ngot: %s",
			base.Stats.String(), res.Stats.String())
	}
}
