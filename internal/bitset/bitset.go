// Package bitset provides a dense bit set used for fault sets throughout
// the scheduling pipeline: observation-time discretization, set-covering
// presolve and the branch-and-bound solver all manipulate sets of fault
// indices that routinely hold tens of thousands of members.
package bitset

import (
	"math/bits"
	"sync"
)

// Set is a fixed-capacity bit set. The zero value is unusable; create
// sets with New.
type Set struct {
	words []uint64
	n     int // capacity in bits
}

// New returns an empty set with capacity n bits.
func New(n int) *Set {
	return &Set{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the capacity in bits.
func (s *Set) Len() int { return s.n }

// Add inserts bit i.
func (s *Set) Add(i int) { s.words[i>>6] |= 1 << uint(i&63) }

// Remove clears bit i.
func (s *Set) Remove(i int) { s.words[i>>6] &^= 1 << uint(i&63) }

// Has reports whether bit i is set.
func (s *Set) Has(i int) bool { return s.words[i>>6]&(1<<uint(i&63)) != 0 }

// Count returns the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Empty reports whether no bit is set.
func (s *Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns a deep copy.
func (s *Set) Clone() *Set {
	return &Set{words: append([]uint64(nil), s.words...), n: s.n}
}

// Or sets s = s ∪ o.
func (s *Set) Or(o *Set) {
	a, b := s.words, o.words[:len(s.words)]
	for i := range a {
		a[i] |= b[i]
	}
}

// And sets s = s ∩ o.
func (s *Set) And(o *Set) {
	a, b := s.words, o.words[:len(s.words)]
	for i := range a {
		a[i] &= b[i]
	}
}

// AndNot sets s = s \ o.
func (s *Set) AndNot(o *Set) {
	a, b := s.words, o.words[:len(s.words)]
	for i := range a {
		a[i] &^= b[i]
	}
}

// IntersectionCount returns |s ∩ o| without allocating.
func (s *Set) IntersectionCount(o *Set) int {
	c := 0
	a, b := s.words, o.words[:len(s.words)]
	for i, w := range a {
		c += bits.OnesCount64(w & b[i])
	}
	return c
}

// AndNotCount returns |s \ o| without allocating. It collapses the
// Clone+AndNot+Count triple pass of the hot loops (branch-and-bound
// marginal gains, schedule fault dropping) into one word-level sweep.
func (s *Set) AndNotCount(o *Set) int {
	c := 0
	a, b := s.words, o.words[:len(s.words)]
	for i, w := range a {
		c += bits.OnesCount64(w &^ b[i])
	}
	return c
}

// SetOr sets s = a ∪ b in one word-level pass, resizing s as needed. It
// fuses the CopyFrom+Or pair of the branch-and-bound include step so each
// word is written once instead of copied and then read back.
func (s *Set) SetOr(a, b *Set) {
	if cap(s.words) < len(a.words) {
		s.words = make([]uint64, len(a.words))
	}
	s.words = s.words[:len(a.words)]
	w, x, y := s.words, a.words, b.words[:len(a.words)]
	for i := range w {
		w[i] = x[i] | y[i]
	}
	s.n = a.n
}

// SetAndNot sets s = a \ b in one word-level pass, resizing s as needed.
func (s *Set) SetAndNot(a, b *Set) {
	if cap(s.words) < len(a.words) {
		s.words = make([]uint64, len(a.words))
	}
	s.words = s.words[:len(a.words)]
	w, x, y := s.words, a.words, b.words[:len(a.words)]
	for i := range w {
		w[i] = x[i] &^ y[i]
	}
	s.n = a.n
}

// SubsetOf reports whether s ⊆ o.
func (s *Set) SubsetOf(o *Set) bool {
	a, b := s.words, o.words[:len(s.words)]
	for i, w := range a {
		if w&^b[i] != 0 {
			return false
		}
	}
	return true
}

// Equal reports set equality.
func (s *Set) Equal(o *Set) bool {
	if s.n != o.n {
		return false
	}
	for i := range s.words {
		if s.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// Members appends all set bit indices to dst and returns it.
func (s *Set) Members(dst []int) []int {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			dst = append(dst, wi*64+b)
			w &= w - 1
		}
	}
	return dst
}

// NextSet returns the first set bit index ≥ i, or -1.
func (s *Set) NextSet(i int) int {
	if i >= s.n {
		return -1
	}
	wi := i >> 6
	w := s.words[wi] >> uint(i&63)
	if w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(s.words); wi++ {
		if s.words[wi] != 0 {
			return wi*64 + bits.TrailingZeros64(s.words[wi])
		}
	}
	return -1
}

// Clear removes all bits.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// CopyFrom overwrites s with the contents of o, reusing s's backing
// storage when it is large enough. It lets pooled scratch sets stand in
// for Clone on hot paths (the covering presolve re-masks every column
// per round) without re-allocating per call.
func (s *Set) CopyFrom(o *Set) {
	if cap(s.words) < len(o.words) {
		s.words = make([]uint64, len(o.words))
	}
	s.words = s.words[:len(o.words)]
	copy(s.words, o.words)
	s.n = o.n
}

// Pool recycles Set backing arrays across hot-path call sites so pooled
// clones replace per-call allocation (the observation-time discretization
// clones one fault set per elementary segment; fault dropping and the
// greedy partial cover clone per round). The zero value is ready to use.
// Sets returned by Get/CloneOf must go back via Put once they no longer
// escape; sets that do escape may simply be kept — the pool never reclaims
// them behind the caller's back.
type Pool struct{ p sync.Pool }

// Get returns a cleared set with capacity n bits, reusing a pooled
// backing array when one is large enough.
func (p *Pool) Get(n int) *Set {
	s, _ := p.p.Get().(*Set)
	if s == nil {
		return New(n)
	}
	words := (n + 63) / 64
	if cap(s.words) < words {
		s.words = make([]uint64, words)
	} else {
		s.words = s.words[:words]
		for i := range s.words {
			s.words[i] = 0
		}
	}
	s.n = n
	return s
}

// CloneOf returns a pooled deep copy of o.
func (p *Pool) CloneOf(o *Set) *Set {
	s, _ := p.p.Get().(*Set)
	if s == nil {
		return o.Clone()
	}
	s.CopyFrom(o)
	return s
}

// Put returns a set to the pool. The set must not be used afterwards.
func (p *Pool) Put(s *Set) {
	if s != nil {
		p.p.Put(s)
	}
}

// Fingerprint folds the set into a 64-bit signature with the filter
// property a ⊆ b ⟹ a.Fingerprint() &^ b.Fingerprint() == 0: bit k of the
// signature is set iff the set holds some element ≡ k (mod 64). The
// converse does not hold, so a cleared signature test only rules subset
// relations out — which is exactly what the dominance presolve needs to
// skip most column pairs without touching their words.
func (s *Set) Fingerprint() uint64 {
	var f uint64
	for _, w := range s.words {
		f |= w
	}
	return f
}
