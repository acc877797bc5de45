package actordemo_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"lmc/internal/actordemo"
	"lmc/internal/core"
	"lmc/internal/model"
	"lmc/internal/testkit"
	"lmc/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the golden witness artifact")

const goldenPath = "testdata/witness_majority.json"

// TestGoldenWitness pins down the repro artifact of the seeded bug: the
// checker's first confirmed witness, serialized to JSON, must match the
// committed file byte for byte, and the committed file must replay to the
// same violation through the adapter (trace.Replay, testkit.Replay) and
// through the raw implementation (ReplayRaw). The checker is deterministic
// for any worker count (TestWorkersParity), so the artifact is stable;
// if an intentional engine change shifts the witness, regenerate with
//
//	go test ./internal/actordemo -run TestGoldenWitness -update
func TestGoldenWitness(t *testing.T) {
	ad := buggy()
	start := model.InitialSystem(ad)
	res := core.Check(ad, start, core.Options{Invariant: actordemo.Atomicity(ad)})
	if len(res.Bugs) == 0 {
		t.Fatal("seeded bug not found")
	}
	bug := res.Bugs[0]
	got, err := ad.MarshalWitness(actordemo.AtomicityName, bug.System.Fingerprint(), bug.Schedule)
	if err != nil {
		t.Fatalf("marshaling witness: %v", err)
	}

	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden artifact (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("witness artifact drifted from %s (regenerate with -update if intentional)\ngot:\n%s",
			goldenPath, got)
	}

	// The committed artifact stands on its own: decode it and drive all
	// three replayers from scratch.
	w, sched, wantFP, err := ad.UnmarshalWitness(want)
	if err != nil {
		t.Fatalf("decoding golden artifact: %v", err)
	}
	if w.Invariant != actordemo.AtomicityName {
		t.Fatalf("artifact names invariant %q", w.Invariant)
	}
	rr := trace.Replay(ad, start, sched)
	if rr.Err != nil || rr.Fingerprint() != wantFP {
		t.Fatalf("adapter replay of artifact: err=%v fp=%v want=%v", rr.Err, rr.Fingerprint(), wantFP)
	}
	if v := actordemo.Atomicity(ad).Check(rr.Final); v == nil {
		t.Fatal("adapter replay final state does not violate atomicity")
	}
	// The testkit and uninstrumented legs in one call.
	if _, err := testkit.ReplayAgree(ad, start, nil, sched, uint64(wantFP)); err != nil {
		t.Fatalf("replaying artifact: %v", err)
	}
	rawFinal, err := ad.ReplayRaw(start, nil, sched)
	if err != nil {
		t.Fatalf("raw replay of artifact: %v", err)
	}
	if v := actordemo.Atomicity(ad).Check(rawFinal); v == nil {
		t.Fatal("raw implementation final state does not violate atomicity")
	}
}
