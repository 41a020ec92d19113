package atpg

// satSolver is a small deterministic CDCL SAT solver (Larrabee 1992 put
// ATPG on Boolean satisfiability; Eggersglüß, Fey, Drechsler et al. made
// it practical on industrial circuits). It proves the launch and
// justification miters of the faults PODEM does not decide within its
// backtrack prefix untestable (see solveFault).
//
// It uses two watched literals per clause, first-UIP conflict learning,
// VSIDS branching with ties broken by the lower variable index, phase
// saving and Luby restarts. Nothing in it is random, and reset starts
// every query from the same state, so a verdict depends only on the
// clauses and their order. The arrays are kept across queries and grow
// by doubling, so once they have grown to a query's size, a query
// allocates nothing.
//
// A literal is 2·var for the positive and 2·var+1 for the negative
// polarity, so lit^1 negates it. A clause is stored in db as its length,
// the links of its two watch chains and its literals, and is referenced
// by the index of its length. The watch chain of a literal starts at
// head[lit] and runs through the clauses that watch it: the first two
// literals of a clause are watched, and db[c+1] and db[c+2] link the
// chains of lits[0] and lits[1]. Chains need no per-literal lists, so the
// solver holds all its state in three blocks (see reserve).
type satSolver struct {
	capVars int
	vals    []int8  // per literal: 1 true, -1 false, 0 unassigned
	phase   []int8  // per variable: polarity of its last assignment
	seen    []int8  // per variable: marked by analyze
	level   []int32 // per variable: decision level of its assignment
	reason  []int32 // per variable: implying clause, or -1
	heapIdx []int32 // per variable: position in heap, -1 when absent
	heap    []int32 // binary heap of variables, best activity first
	trail   []int32
	lim     []int32 // trail length at the start of each decision level
	learnt  []int32
	head    []int32 // per literal: first clause of its watch chain, -1 for none
	act     []float64
	db      []int32
	units   []int32 // unit clauses, enqueued when solve starts
	qhead   int
	inc     float64
	// empty records that an empty clause was added.
	empty bool
}

// satResult is the verdict of one query.
type satResult uint8

const (
	satUnknown    satResult = iota // the conflict limit ran out
	satSat                         // satisfiable
	satUnsat                       // unsatisfiable
	satOverBudget                  // not asked: the miter was too large
)

// satRestartUnit scales the Luby restart sequence, in conflicts.
const satRestartUnit = 100

// reserve makes room for nv variables, with twice the room it needs when
// it grows. The per-variable and per-literal arrays, the unit list and
// the clause store are carved from three blocks, so a growth costs three
// allocations; the store starts at 20 literals per variable (a miter
// needs about 16) and doubles on its own if a query outgrows it.
func (s *satSolver) reserve(nv int) {
	if nv <= s.capVars {
		return
	}
	n := 2 * max(nv, s.capVars)
	s.capVars = n
	ints := make([]int32, 30*n)
	carve := func(k int) []int32 {
		b := ints[:0:k]
		ints = ints[k:]
		return b
	}
	s.level, s.reason, s.heapIdx = carve(n)[:n], carve(n)[:n], carve(n)[:n]
	s.heap, s.trail, s.lim, s.learnt, s.units = carve(n), carve(n), carve(n), carve(n), carve(n)
	s.head = carve(2 * n)[:2*n]
	s.db = carve(20 * n)
	bytes := make([]int8, 4*n)
	s.vals, s.phase, s.seen = bytes[:2*n:2*n], bytes[2*n:3*n:3*n], bytes[3*n:]
	s.act = make([]float64, n)
}

// reset starts a fresh query over nv variables with no clauses.
func (s *satSolver) reset(nv int) {
	s.reserve(nv)
	clear(s.vals[:2*nv])
	clear(s.seen[:nv])
	clear(s.act[:nv])
	for l := range s.head[:2*nv] {
		s.head[l] = -1
	}
	// Every activity is 0, so the variables in index order form a heap.
	s.heap = s.heap[:0]
	for v := 0; v < nv; v++ {
		s.phase[v] = 1
		s.reason[v] = -1
		s.heapIdx[v] = int32(v)
		s.heap = append(s.heap, int32(v))
	}
	s.db, s.units, s.trail, s.lim = s.db[:0], s.units[:0], s.trail[:0], s.lim[:0]
	s.qhead, s.inc, s.empty = 0, 1, false
}

// addClause adds the clause of lits, which it may reorder. Duplicate
// literals are dropped and a tautology is skipped. It must be called
// before solve.
func (s *satSolver) addClause(lits []int32) {
	if len(lits) == 2 && lits[0]>>1 != lits[1]>>1 {
		s.attach(lits) // most gate clauses: nothing to sort out
		return
	}
	// Insertion sort: clauses are short, and a library sort would allocate.
	for i := 1; i < len(lits); i++ {
		for j := i; j > 0 && lits[j-1] > lits[j]; j-- {
			lits[j-1], lits[j] = lits[j], lits[j-1]
		}
	}
	n := 0
	for i, l := range lits {
		if i > 0 {
			if l == lits[n-1] {
				continue
			}
			if l == lits[n-1]^1 {
				return // l and its negation: always satisfied
			}
		}
		lits[n] = l
		n++
	}
	switch n {
	case 0:
		s.empty = true
	case 1:
		s.units = append(s.units, lits[0])
	default:
		s.attach(lits[:n])
	}
}

// attach stores a clause of two or more literals and watches its first
// two.
func (s *satSolver) attach(lits []int32) int32 {
	c := int32(len(s.db))
	if need := len(s.db) + 3 + len(lits); need > cap(s.db) {
		db := make([]int32, len(s.db), max(need, 2*cap(s.db)))
		copy(db, s.db)
		s.db = db
	}
	s.db = append(s.db, int32(len(lits)), s.head[lits[0]], s.head[lits[1]])
	s.db = append(s.db, lits...)
	s.head[lits[0]], s.head[lits[1]] = c, c
	return c
}

// lits returns the literals of clause c.
func (s *satSolver) lits(c int32) []int32 { return s.db[c+3 : c+3+s.db[c]] }

// enqueue assigns lit true at the current decision level.
func (s *satSolver) enqueue(lit, reason int32) {
	v := lit >> 1
	s.vals[lit], s.vals[lit^1] = 1, -1
	s.level[v] = int32(len(s.lim))
	s.reason[v] = reason
	s.trail = append(s.trail, lit)
}

// propagate runs unit propagation over the trail and returns a conflicting
// clause, or -1. A clause in the chain of a literal that became false
// moves its watch to a literal that is not false, or else implies its
// other watched literal or conflicts; an implying clause keeps that
// literal first, as analyze expects.
func (s *satSolver) propagate() int32 {
	for s.qhead < len(s.trail) {
		fl := s.trail[s.qhead] ^ 1 // the literal that just became false
		s.qhead++
		link := int32(-1) // the slot that holds c: head[fl], or a db link
		for c := s.head[fl]; c >= 0; {
			lits := s.lits(c)
			if lits[0] == fl {
				lits[0], lits[1] = lits[1], lits[0]
				s.db[c+1], s.db[c+2] = s.db[c+2], s.db[c+1]
			}
			next, first := s.db[c+2], lits[0]
			if s.vals[first] != 1 {
				k := 2
				for k < len(lits) && s.vals[lits[k]] == -1 {
					k++
				}
				if k < len(lits) {
					// Move the watch: unlink c from fl's chain and push it
					// onto the chain of its new second literal.
					lits[1], lits[k] = lits[k], lits[1]
					if link < 0 {
						s.head[fl] = next
					} else {
						s.db[link] = next
					}
					s.db[c+2] = s.head[lits[1]]
					s.head[lits[1]] = c
					c = next
					continue
				}
				if s.vals[first] == -1 {
					s.qhead = len(s.trail)
					return c
				}
				s.enqueue(first, c)
			}
			link, c = c+2, next
		}
	}
	return -1
}

// analyze derives the first-UIP clause of a conflict into s.learnt, the
// asserting literal first and a literal of the backjump level second, and
// returns that level.
func (s *satSolver) analyze(confl int32) int {
	s.learnt = append(s.learnt[:0], 0)
	dl := int32(len(s.lim))
	pending, p, idx := 0, int32(-1), len(s.trail)-1
	for {
		lits := s.lits(confl)
		if p >= 0 {
			lits = lits[1:] // the literal the clause implied
		}
		for _, q := range lits {
			v := q >> 1
			if s.seen[v] != 0 || s.level[v] == 0 {
				continue
			}
			s.seen[v] = 1
			s.bump(v)
			if s.level[v] >= dl {
				pending++
			} else {
				s.learnt = append(s.learnt, q)
			}
		}
		for s.seen[s.trail[idx]>>1] == 0 {
			idx--
		}
		p = s.trail[idx]
		idx--
		s.seen[p>>1] = 0
		pending--
		if pending == 0 {
			break
		}
		confl = s.reason[p>>1]
	}
	s.learnt[0] = p ^ 1
	back := 0
	for i := 1; i < len(s.learnt); i++ {
		v := s.learnt[i] >> 1
		s.seen[v] = 0
		if l := int(s.level[v]); l > back {
			back = l
			s.learnt[1], s.learnt[i] = s.learnt[i], s.learnt[1]
		}
	}
	return back
}

// cancelUntil undoes every assignment above decision level lvl, saving
// each variable's phase and returning it to the heap.
func (s *satSolver) cancelUntil(lvl int) {
	if len(s.lim) <= lvl {
		return
	}
	mark := int(s.lim[lvl])
	for i := len(s.trail) - 1; i >= mark; i-- {
		lit := s.trail[i]
		v := lit >> 1
		s.vals[lit], s.vals[lit^1] = 0, 0
		s.phase[v] = int8(lit & 1)
		if s.heapIdx[v] < 0 {
			s.heapPush(v)
		}
	}
	s.trail, s.lim = s.trail[:mark], s.lim[:lvl]
	s.qhead = mark
}

// bump raises a variable's activity by the current increment. The
// increment grows by 1/0.95 per conflict, so within satMaxConflicts
// conflicts it stays below 1e23 and activities need no rescaling.
func (s *satSolver) bump(v int32) {
	s.act[v] += s.inc
	if i := s.heapIdx[v]; i >= 0 {
		s.heapUp(int(i))
	}
}

// before orders the heap: higher activity first, then the lower index.
func (s *satSolver) before(a, b int32) bool {
	return s.act[a] > s.act[b] || (s.act[a] == s.act[b] && a < b)
}

func (s *satSolver) heapPush(v int32) {
	s.heapIdx[v] = int32(len(s.heap))
	s.heap = append(s.heap, v)
	s.heapUp(len(s.heap) - 1)
}

func (s *satSolver) heapUp(i int) {
	v := s.heap[i]
	for i > 0 {
		p := (i - 1) / 2
		if !s.before(v, s.heap[p]) {
			break
		}
		s.heap[i] = s.heap[p]
		s.heapIdx[s.heap[i]] = int32(i)
		i = p
	}
	s.heap[i] = v
	s.heapIdx[v] = int32(i)
}

// heapPop removes and returns the best variable.
func (s *satSolver) heapPop() int32 {
	top := s.heap[0]
	s.heapIdx[top] = -1
	last := s.heap[len(s.heap)-1]
	s.heap = s.heap[:len(s.heap)-1]
	if n := len(s.heap); n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && s.before(s.heap[c+1], s.heap[c]) {
				c++
			}
			if !s.before(s.heap[c], last) {
				break
			}
			s.heap[i] = s.heap[c]
			s.heapIdx[s.heap[i]] = int32(i)
			i = c
		}
		s.heap[i] = last
		s.heapIdx[last] = int32(i)
	}
	return top
}

// luby returns the i-th element (from 0) of the Luby sequence 1, 1, 2, 1,
// 1, 2, 4, ...
func luby(i int) int {
	size, seq := 1, 0
	for size < i+1 {
		seq++
		size = 2*size + 1
	}
	for size-1 != i {
		size = (size - 1) / 2
		seq--
		i %= size
	}
	return 1 << seq
}

// solve decides the clauses added since reset, giving up after
// maxConflicts conflicts.
func (s *satSolver) solve(maxConflicts int) satResult {
	if s.empty {
		return satUnsat
	}
	for _, u := range s.units {
		switch s.vals[u] {
		case -1:
			return satUnsat
		case 0:
			s.enqueue(u, -1)
		}
	}
	conflicts, restart, nextRestart := 0, 0, satRestartUnit*luby(0)
	for {
		if confl := s.propagate(); confl >= 0 {
			if len(s.lim) == 0 {
				return satUnsat
			}
			conflicts++
			back := s.analyze(confl)
			s.cancelUntil(back)
			if len(s.learnt) == 1 {
				s.enqueue(s.learnt[0], -1)
			} else {
				s.enqueue(s.learnt[0], s.attach(s.learnt))
			}
			s.inc /= 0.95
			if conflicts >= maxConflicts {
				return satUnknown
			}
			if conflicts >= nextRestart {
				restart++
				nextRestart = conflicts + satRestartUnit*luby(restart)
				s.cancelUntil(0)
			}
			continue
		}
		v := int32(-1)
		for len(s.heap) > 0 {
			if w := s.heapPop(); s.vals[2*w] == 0 {
				v = w
				break
			}
		}
		if v < 0 {
			return satSat
		}
		s.lim = append(s.lim, int32(len(s.trail)))
		s.enqueue(2*v+int32(s.phase[v]), -1)
	}
}
