package main

import (
	"bytes"
	"math/rand"
	"time"

	"lmc/internal/codec"
	"lmc/internal/model"
	"lmc/internal/netstate"
)

// The offline probes run after the traced check, over what the traced
// machine captured: they time calls into the codec and netstate packages on
// the fingerprints and messages the engine produced, without the engine.

// probeFloor is the least time an offline timing loop runs, so a per-item
// figure is an average over enough work to be steady.
const probeFloor = 100 * time.Millisecond

// sink keeps the compiler from dropping a timed call whose result is unused.
var sink uint64

// timePerItem runs pass (which processes n items) until probeFloor has
// elapsed and returns nanoseconds per item.
func timePerItem(n int, pass func()) float64 {
	if n == 0 {
		return 0
	}
	t0 := time.Now()
	passes := 0
	for time.Since(t0) < probeFloor {
		pass()
		passes++
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(passes*n)
}

// probeCodec turns the traced machine's in-place hash samples into the
// codec. rows and times the two codec paths no handler exercises: the
// canonicalizer and the frame layer (probeFrame).
func probeCodec(tr *tracer, tm *tracedMachine, in *input, seed int64, L map[string]float64) {
	id := tr.begin("probe.codec", 0, 0)
	defer tr.end(id)

	L["codec.hash_ns_per_state"] = ratio(float64(tm.stateHashBusy.Nanoseconds()), float64(tm.hashedStates))
	L["codec.hash_ns_per_msg"] = ratio(float64(tm.msgHashBusy.Nanoseconds()), float64(tm.hashedMsgs))
	L["codec.bytes_per_state"] = ratio(float64(tm.stateBytes), float64(tm.hashedStates))
	// The engine fingerprints every successor state and every emission.
	L["codec.hash_busy_est_s"] = (L["codec.hash_ns_per_state"]*float64(tm.successors) +
		L["codec.hash_ns_per_msg"]*float64(tm.msgsEmitted)) / 1e9

	if in.opt.Reduce.Symmetry {
		L["codec.canonical_ns_per_tuple"] = probeCanonical(tm, seed)
	}
	probeFrame(seed, L)
}

// probeFrame times the frame round trip on a store-sized payload. Only its
// length matters to the framing and its checksum, so seeded noise stands in
// for a round's records.
func probeFrame(seed int64, L map[string]float64) {
	payload := make([]byte, 64<<10)
	rand.New(rand.NewSource(seed)).Read(payload)
	var frame []byte
	ns := timePerItem(1, func() {
		frame = codec.AppendFrame(frame[:0], payload)
		got, err := codec.ReadFrame(bytes.NewReader(frame), len(payload))
		if err != nil || len(got) != len(payload) {
			panic("codec frame round trip failed")
		}
	})
	L["codec.frame_mb_per_s"] = float64(len(payload)) / ns * 1e9 / (1 << 20)
}

// probeCanonical times codec.Canonicalizer over tuples drawn with the seed,
// one sampled state fingerprint per node.
func probeCanonical(tm *tracedMachine, seed int64) float64 {
	sym, ok := tm.inner.(model.Symmetric)
	if !ok {
		return 0
	}
	n := tm.inner.NumNodes()
	var classes [][]int
	for _, cl := range sym.SymmetryClasses() {
		ints := make([]int, len(cl))
		for i, id := range cl {
			ints[i] = int(id)
		}
		classes = append(classes, ints)
	}
	canon, err := codec.NewCanonicalizer(n, classes)
	if err != nil || canon.NumClasses() == 0 {
		return 0
	}
	for _, fps := range tm.stateFPsByNode {
		if len(fps) == 0 {
			return 0
		}
	}
	const tuples = 1 << 16
	rng := rand.New(rand.NewSource(seed))
	flat := make([]codec.Fingerprint, tuples*n)
	for i := range flat {
		fps := tm.stateFPsByNode[i%n]
		flat[i] = fps[rng.Intn(len(fps))]
	}
	return timePerItem(tuples, func() {
		for i := 0; i < tuples; i++ {
			sink += uint64(canon.Canonical(flat[i*n : (i+1)*n]))
		}
	})
}

// probeNetstate replays the captured emission stream into a fresh I+, one
// message per append as the sequential engine does, with the fingerprints
// computed beforehand so the codec's share is not counted twice.
func probeNetstate(tr *tracer, tm *tracedMachine, L map[string]float64) {
	id := tr.begin("probe.netstate", 0, 0)
	defer tr.end(id)
	if len(tm.stream) == 0 {
		return
	}
	fps := make([]codec.Fingerprint, len(tm.stream))
	for i, m := range tm.stream {
		fps[i] = model.MessageFingerprint(m)
	}
	net := netstate.NewSharedNet(0)
	t0 := time.Now()
	for i := range tm.stream {
		net.AddAllFP(tm.stream[i:i+1], fps[i:i+1])
	}
	replay := time.Since(t0).Seconds()
	// Scale to the whole stream when the capture was cut at streamCap.
	L["netstate.add_busy_s"] = replay * float64(tm.msgsEmitted) / float64(len(tm.stream))
	L["netstate.entries"] = float64(net.Len())
	L["netstate.dup_dropped_share"] = ratio(float64(net.Dropped()), float64(len(tm.stream)))
	const epochs = 1 << 20
	L["netstate.epoch_ns"] = timePerItem(epochs, func() {
		for i := 0; i < epochs; i++ {
			sink += uint64(net.Epoch().Len())
		}
	})
}
