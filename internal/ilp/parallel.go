package ilp

import (
	"sort"
	"sync"
	"sync/atomic"
)

// stopFlag is the shared early-stop state of a parallel search. The first
// reason wins; later calls are no-ops, so a budget expiry and a
// cancellation racing each other resolve deterministically per run.
type stopFlag struct{ v atomic.Int32 }

func (s *stopFlag) set(r stopReason) { s.v.CompareAndSwap(0, int32(r)) }
func (s *stopFlag) get() stopReason  { return stopReason(s.v.Load()) }

// bestList is the shared incumbent of a covering search: an atomic length
// for lock-free bound reads on the hot pruning path, and a mutex-guarded
// selection updated under a deterministic total order — shorter wins,
// equal length prefers the higher score (PartialCover passes the covered
// count, so equal-size selections that cover more of the universe win;
// full covers pass a constant), and remaining ties fall back to
// lexicographic comparison of the sorted index lists. Because pruning only
// discards subtrees whose every selection is strictly worse than the
// incumbent — by length, and for PartialCover by length then score —
// every selection that can win is offered eventually and the final winner
// is the same for every worker count and interleaving.
type bestList struct {
	mu      sync.Mutex
	ns      atomic.Int64 // packed incumbent (length<<32 | score) for lock-free reads
	sel     []int
	score   int
	scratch []int // reused sort buffer; offers are serialized by mu
}

func packNS(n, score int) int64 { return int64(n)<<32 | int64(uint32(score)) }

// newBestList seeds the incumbent, typically with a greedy cover, and its
// score. The seed must be sorted ascending.
func newBestList(seed []int, score int) *bestList {
	b := &bestList{sel: append([]int(nil), seed...), score: score}
	b.ns.Store(packNS(len(b.sel), score))
	return b
}

// bound returns the current incumbent length and score from one atomic
// read. A stale pair ranks no better than the current incumbent, so
// pruning against it only weakens the pruning; it never changes the final
// result.
func (b *bestList) bound() (n, score int) {
	ns := b.ns.Load()
	return int(ns >> 32), int(int32(uint32(ns)))
}

// offer publishes a candidate selection (any order; offer sorts a reused
// scratch copy under the mutex, so the caller's slice is never retained).
// It reports whether the candidate replaced the incumbent.
//
// The pre-lock reject reads a stale-but-monotone snapshot: the incumbent
// only ever improves (length shrinks; at equal length the score grows), so
// a candidate that loses against an older snapshot also loses against the
// current one and can bail without the mutex.
func (b *bestList) offer(cand []int, score int) bool {
	if ns := b.ns.Load(); len(cand) > int(ns>>32) ||
		(len(cand) == int(ns>>32) && score < int(int32(uint32(ns)))) {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	c := append(b.scratch[:0], cand...)
	b.scratch = c
	sort.Ints(c)
	switch {
	case len(c) < len(b.sel):
	case len(c) > len(b.sel):
		return false
	case score > b.score:
	case score < b.score:
		return false
	case !lexLess(c, b.sel):
		return false
	}
	b.sel = append(b.sel[:0], c...)
	b.score = score
	b.ns.Store(packNS(len(c), score))
	return true
}

// snapshot returns a copy of the current incumbent selection.
func (b *bestList) snapshot() []int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]int(nil), b.sel...)
}

// lexLess compares two ascending index lists lexicographically; a proper
// prefix is smaller than its extensions.
func lexLess(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}
