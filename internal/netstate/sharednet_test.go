package netstate

import (
	"testing"

	"lmc/internal/codec"
)

// TestDigestReplicaAgreement: replicas that appended the same entries in the
// same order agree on the digest; one divergent entry changes it.
func TestDigestReplicaAgreement(t *testing.T) {
	seed := []testMsg{{0, 0, 1}, {0, 1, 2}, {0, 1, 2}, {1, 0, 3}, {0, 1, 9}}
	a, b, c := NewSharedNet(1), NewSharedNet(1), NewSharedNet(1)
	for _, m := range seed {
		a.Add(m)
		b.Add(m)
		c.Add(m)
	}
	a.Add(testMsg{1, 0, 10})
	b.Add(testMsg{1, 0, 10})
	c.Add(testMsg{1, 0, 11}) // diverges
	if a.Digest() != b.Digest() {
		t.Fatal("matching replicas disagree on digest")
	}
	if c.Digest() == a.Digest() {
		t.Fatal("diverged replica matches digest")
	}
}

func TestAnyAdmissible(t *testing.T) {
	s := NewSharedNet(0) // no duplicates tolerated
	e := s.Add(testMsg{0, 0, 1})
	if e == nil {
		t.Fatal("first add dropped")
	}
	fresh := codec.Fingerprint(0xdead)
	if !s.AnyAdmissible([]codec.Fingerprint{e.FP, fresh}) {
		t.Fatal("fresh fingerprint reported inadmissible")
	}
	if s.AnyAdmissible([]codec.Fingerprint{e.FP}) {
		t.Fatal("exhausted fingerprint reported admissible")
	}
	if s.AnyAdmissible(nil) {
		t.Fatal("empty batch reported admissible")
	}
}
