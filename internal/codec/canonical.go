package codec

import (
	"errors"
	"fmt"
)

// Canonicalizer canonicalizes fixed-width fingerprint vectors under role
// permutation. It is the symmetry-reduction seam of the checkers: a system
// state is identified by the ordered combination of its per-node state
// fingerprints (model.SystemState.Fingerprint), so two system states that
// differ only by a permutation of interchangeable node roles hash to
// different values. A Canonicalizer declares which slots of the vector are
// interchangeable (the symmetry classes) and derives a canonical fingerprint
// that is invariant under any permutation of the slots within one class:
// class-member sub-fingerprints are sorted before the order-sensitive
// combination, exactly as the package comment's canonical-encoding rule
// sorts collection elements before hashing.
//
// The Canonicalizer itself is immutable after construction and safe for
// concurrent use. Canonical works on a stack scratch vector for systems up
// to canonicalScratchSlots nodes, preserving the zero-alloc property of
// HashOf on the hot path.
type Canonicalizer struct {
	n       int
	classes [][]int
	// member[i] is true when slot i belongs to some class; slots outside all
	// classes (distinguished roles) keep their position.
	member []bool
}

// canonicalScratchSlots is the vector width the canonical paths handle
// without heap allocation. Checked systems are small (the paper's runs use
// 3–5 nodes); larger vectors fall back to an allocating copy.
const canonicalScratchSlots = 16

// NewCanonicalizer builds a Canonicalizer for vectors of n slots with the
// given symmetry classes. Every class index must be in [0, n) and no index
// may appear in more than one class. Classes with fewer than two members
// impose no constraint and are dropped. The classes slices are copied; the
// caller keeps ownership of its argument.
func NewCanonicalizer(n int, classes [][]int) (*Canonicalizer, error) {
	if n < 0 {
		return nil, errors.New("codec: canonicalizer slot count must be non-negative")
	}
	c := &Canonicalizer{n: n, member: make([]bool, n)}
	for _, cl := range classes {
		if len(cl) < 2 {
			continue
		}
		cp := make([]int, len(cl))
		copy(cp, cl)
		insertionSortInts(cp)
		for i, idx := range cp {
			if idx < 0 || idx >= n {
				return nil, fmt.Errorf("codec: canonicalizer class index %d out of range [0,%d)", idx, n)
			}
			if i > 0 && cp[i-1] == idx {
				return nil, fmt.Errorf("codec: canonicalizer class index %d duplicated", idx)
			}
			if c.member[idx] {
				return nil, fmt.Errorf("codec: canonicalizer class index %d appears in two classes", idx)
			}
		}
		for _, idx := range cp {
			c.member[idx] = true
		}
		c.classes = append(c.classes, cp)
	}
	return c, nil
}

// NumClasses is the number of (non-trivial) symmetry classes.
func (c *Canonicalizer) NumClasses() int { return len(c.classes) }

// Classes exposes the symmetry classes, each sorted ascending. The returned
// slices are the Canonicalizer's own and must not be modified.
func (c *Canonicalizer) Classes() [][]int { return c.classes }

// InClass reports whether slot i belongs to a symmetry class.
func (c *Canonicalizer) InClass(i int) bool { return i >= 0 && i < c.n && c.member[i] }

// IsCanonical reports whether fps is the canonical representative of its
// orbit: within every class, the member fingerprints appear in ascending
// slot-index order already sorted. The canonical representative is the
// unique arrangement (up to equal fingerprints) for which Canonical equals
// the plain ordered Combine.
func (c *Canonicalizer) IsCanonical(fps []Fingerprint) bool {
	for _, cl := range c.classes {
		for i := 1; i < len(cl); i++ {
			if fps[cl[i-1]] > fps[cl[i]] {
				return false
			}
		}
	}
	return true
}

// Canonical returns the canonical fingerprint of the vector: the
// order-sensitive Combine of the slots with every class's members replaced
// by their sorted arrangement. It is invariant under any permutation of
// slot values within one class and equals Combine(fps...) exactly when
// IsCanonical(fps) holds (the arrangements coincide). len(fps) must equal
// the slot count the Canonicalizer was built for.
func (c *Canonicalizer) Canonical(fps []Fingerprint) Fingerprint {
	if len(fps) != c.n {
		panic(fmt.Sprintf("codec: Canonical on %d slots, want %d", len(fps), c.n))
	}
	var scratch [canonicalScratchSlots]Fingerprint
	var buf []Fingerprint
	if c.n <= canonicalScratchSlots {
		buf = scratch[:c.n]
	} else {
		buf = make([]Fingerprint, c.n)
	}
	copy(buf, fps)
	for _, cl := range c.classes {
		sortClassSegment(buf, cl)
	}
	h := NewHasher()
	for _, fp := range buf {
		h.Add(fp)
	}
	return h.Sum()
}

// Canonicalize rearranges fps in place into its orbit's canonical
// representative: every class segment is sorted ascending. After the call,
// IsCanonical(fps) holds and Combine(fps...) equals Canonical of the
// original vector.
func (c *Canonicalizer) Canonicalize(fps []Fingerprint) {
	if len(fps) != c.n {
		panic(fmt.Sprintf("codec: Canonicalize on %d slots, want %d", len(fps), c.n))
	}
	for _, cl := range c.classes {
		sortClassSegment(fps, cl)
	}
}

// CanonicalOf fingerprints each encodable slot value with the pooled
// zero-alloc HashOf and combines them canonically. It is the encoder-level
// entry point: permuting values within a class leaves the result unchanged.
func (c *Canonicalizer) CanonicalOf(vs []Encoder) Fingerprint {
	if len(vs) != c.n {
		panic(fmt.Sprintf("codec: CanonicalOf on %d slots, want %d", len(vs), c.n))
	}
	var scratch [canonicalScratchSlots]Fingerprint
	var fps []Fingerprint
	if c.n <= canonicalScratchSlots {
		fps = scratch[:c.n]
	} else {
		fps = make([]Fingerprint, c.n)
	}
	for i, v := range vs {
		fps[i] = HashOf(v)
	}
	for _, cl := range c.classes {
		sortClassSegment(fps, cl)
	}
	h := NewHasher()
	for _, fp := range fps {
		h.Add(fp)
	}
	return h.Sum()
}

// sortClassSegment sorts the values at the class's slot positions in
// ascending order, in place. Classes are small (they hold node roles), so a
// straight insertion sort beats sort.Slice and allocates nothing.
func sortClassSegment(buf []Fingerprint, cl []int) {
	for i := 1; i < len(cl); i++ {
		v := buf[cl[i]]
		j := i - 1
		for j >= 0 && buf[cl[j]] > v {
			buf[cl[j+1]] = buf[cl[j]]
			j--
		}
		buf[cl[j+1]] = v
	}
}

func insertionSortInts(vs []int) {
	for i := 1; i < len(vs); i++ {
		v := vs[i]
		j := i - 1
		for j >= 0 && vs[j] > v {
			vs[j+1] = vs[j]
			j--
		}
		vs[j+1] = v
	}
}
