// Package bitset provides a dense, fixed-capacity bit set used by the
// happens-before engine to represent reachability rows. The race detector
// computes transitive closures over graphs with thousands of nodes, so the
// per-row representation must support fast union and iteration; a []uint64
// with word-level operations gives both.
package bitset

import "math/bits"

const wordBits = 64

// Set is a fixed-capacity bit set. The zero value is an empty set of
// capacity zero; use New to create a set able to hold n bits.
type Set struct {
	words []uint64
	n     int
}

// New returns an empty set with capacity for bits 0 through n-1.
func New(n int) *Set {
	if n < 0 {
		panic("bitset: negative capacity")
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Len returns the capacity of the set in bits.
func (s *Set) Len() int { return s.n }

// Set sets bit i to 1. It panics if i is out of range.
func (s *Set) Set(i int) {
	s.check(i)
	s.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Clear sets bit i to 0. It panics if i is out of range.
func (s *Set) Clear(i int) {
	s.check(i)
	s.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// Has reports whether bit i is set. It panics if i is out of range.
func (s *Set) Has(i int) bool {
	s.check(i)
	return s.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

func (s *Set) check(i int) {
	if i < 0 || i >= s.n {
		panic("bitset: index out of range")
	}
}

// UnionWith sets s to s ∪ t and reports whether s changed.
// It panics if the sets have different capacities.
func (s *Set) UnionWith(t *Set) bool {
	if s.n != t.n {
		panic("bitset: capacity mismatch")
	}
	changed := false
	for i, w := range t.words {
		if nw := s.words[i] | w; nw != s.words[i] {
			s.words[i] = nw
			changed = true
		}
	}
	return changed
}

// CopyFrom overwrites s with the contents of t.
// It panics if the sets have different capacities.
func (s *Set) CopyFrom(t *Set) {
	if s.n != t.n {
		panic("bitset: capacity mismatch")
	}
	copy(s.words, t.words)
}

// UnionCount returns |s ∪ t| without materializing the union — the
// allocation-free form of s.Clone().UnionWith(t).Count() that the
// happens-before graph counts its st-or-mt pairs with.
// It panics if the sets have different capacities.
func (s *Set) UnionCount(t *Set) int {
	if s.n != t.n {
		panic("bitset: capacity mismatch")
	}
	c := 0
	for i, w := range t.words {
		c += bits.OnesCount64(s.words[i] | w)
	}
	return c
}

// IntersectsWith reports whether s ∩ t is non-empty.
// It panics if the sets have different capacities.
func (s *Set) IntersectsWith(t *Set) bool {
	if s.n != t.n {
		panic("bitset: capacity mismatch")
	}
	for i, w := range t.words {
		if s.words[i]&w != 0 {
			return true
		}
	}
	return false
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Any reports whether the set contains at least one bit.
func (s *Set) Any() bool {
	for _, w := range s.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// Reset clears all bits without changing the capacity.
func (s *Set) Reset() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Clone returns an independent copy of s.
func (s *Set) Clone() *Set {
	c := &Set{words: make([]uint64, len(s.words)), n: s.n}
	copy(c.words, s.words)
	return c
}

// Equal reports whether s and t have the same capacity and contents.
func (s *Set) Equal(t *Set) bool {
	if s.n != t.n {
		return false
	}
	for i, w := range s.words {
		if w != t.words[i] {
			return false
		}
	}
	return true
}

// ForEach calls fn for every set bit in ascending order.
func (s *Set) ForEach(fn func(i int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi*wordBits + b)
			w &= w - 1
		}
	}
}

// NextSet returns the index of the first set bit at or after i, or -1 if
// there is none.
func (s *Set) NextSet(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= s.n {
		return -1
	}
	wi := i / wordBits
	w := s.words[wi] >> (uint(i) % wordBits)
	if w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(s.words); wi++ {
		if s.words[wi] != 0 {
			return wi*wordBits + bits.TrailingZeros64(s.words[wi])
		}
	}
	return -1
}
