package atpg

import (
	"fastmon/internal/circuit"
)

// podemResult is the outcome of one PODEM run.
type podemResult uint8

const (
	testFound podemResult = iota
	untestable
	aborted
)

// decision is one entry of the PODEM decision stack.
type decision struct {
	src     int // source index
	val     value
	flipped bool
	mark    int // trail length before the decision was implied
}

// objective returns the next (net, value) objective: activate the fault if
// the site is still X, otherwise advance the D-frontier. ok=false means no
// objective exists (dead branch). The frontier is pre-sorted closest to an
// observation point first.
func (m *machine) objective(frontier []int) (net int, val value, ok bool) {
	s := m.siteNet()
	if m.good(s) == vX {
		return s, m.stuck.not(), true
	}
	for _, gd := range frontier {
		g := &m.c.Gates[gd]
		ctl, hasCtl := controlling(g.Kind)
		best, bestCost := -1, 0
		want := v0
		if hasCtl {
			want = ctl.not()
		}
		for p, f := range g.Fanin {
			if gd == m.flt.Gate && m.flt.Pin == p {
				continue // the faulty pin itself cannot be justified
			}
			if m.good(f) != vX {
				continue
			}
			// Prefer the cheapest input to set non-controlling.
			if c := m.cost(f, want); best < 0 || c < bestCost {
				best, bestCost = f, c
			}
		}
		if best >= 0 {
			return best, want, true
		}
	}
	return 0, vX, false
}

// backtrace maps an objective on an X-valued net to a source assignment by
// walking backwards through X-valued nets, choosing inputs by
// controllability cost: the cheapest input when one controlling input
// suffices, the hardest when all inputs must be non-controlling (fail-fast
// ordering). The source it returns is therefore always X, as decide
// requires.
func (m *machine) backtrace(net int, val value) (srcIdx int, v value, ok bool) {
	for {
		g := &m.c.Gates[net]
		if g.Kind == circuit.Input || g.Kind == circuit.DFF {
			return m.srcIdx[net], val, true
		}
		if g.Kind.Inverting() {
			val = val.not()
		}
		ctl, hasCtl := controlling(g.Kind)
		pickEasiest := hasCtl && val == ctl
		next, nextCost := -1, 0
		for _, f := range g.Fanin {
			if m.good(f) != vX {
				continue
			}
			c := m.cost(f, val)
			if next < 0 || (pickEasiest && c < nextCost) || (!pickEasiest && c > nextCost) {
				next, nextCost = f, c
			}
		}
		if next < 0 {
			return 0, vX, false // no X path backwards: dead objective
		}
		net = next
	}
}

// begin starts a decision search on the all-X assignment, with the
// decision stack and trail empty. With every source X, every gate of the
// good machine is X, and the faulty machine differs from it only where
// the fault forcing reaches: the state is cleared, and the fault gate is
// evaluated and its change propagated like any implication, so the set-up
// cost tracks the forcing's reach, not the circuit. A fault on a source forces nothing
// (sources are never evaluated), which leaves the cleared state.
func (m *machine) begin() {
	m.backtracks = 0
	m.stack = m.stack[:0]
	clear(m.state)
	if k := m.kind[m.fltGate]; k != circuit.Input && k != circuit.DFF {
		if s := m.evalAt(m.fltGate); s != 0 {
			m.state[m.fltGate] = s
			m.propagate(m.fltGate)
		}
	}
	m.trail = m.trail[:0]
}

// decide pushes the decision src = v and implies it. The source must be X,
// which backtrace guarantees (see implySrc).
func (m *machine) decide(src int, v value) {
	m.stack = append(m.stack, decision{src: src, val: v, mark: len(m.trail)})
	m.assign[src] = v
	m.implySrc(src)
}

// backtrack flips the most recent unflipped decision. Every decision above
// it is already flipped: it is unassigned by restoring the trail to its
// mark and popped. The decision itself is also restored to X, then
// implied at the opposite value. ok=false ends the search: untestable
// when no decision is left to flip, aborted when the flip exceeds
// maxBacktracks.
func (m *machine) backtrack(maxBacktracks int) (res podemResult, ok bool) {
	for len(m.stack) > 0 {
		top := &m.stack[len(m.stack)-1]
		m.undoTo(top.mark)
		if !top.flipped {
			top.flipped = true
			top.val = top.val.not()
			m.assign[top.src] = top.val
			m.implySrc(top.src)
			m.backtracks++
			if m.backtracks > maxBacktracks {
				return aborted, false
			}
			return 0, true
		}
		m.assign[top.src] = vX
		m.stack = m.stack[:len(m.stack)-1]
	}
	return untestable, false
}

// start sets up a PODEM search for the machine's fault: the observation
// points of the site cone and the all-X assignment.
func (m *machine) start() {
	m.findSiteTaps()
	m.begin()
}

// search runs the PODEM decision loop from the state start or an earlier
// search left, until it finds a test, runs out of decisions, or a flip
// takes the run's backtracks above limit. The limit is checked only after
// a flip, with the flip done, so a search aborted at one limit and
// resumed at a larger one ends exactly as one run at the larger limit:
// the same result, assignment and backtrack count. On success the source
// assignment (with X for don't-cares) is left in m.assign.
func (m *machine) search(limit int) podemResult {
	for {
		if m.detected() {
			return testFound
		}
		if src, v, ok := m.next(); ok {
			m.decide(src, v)
		} else if res, ok := m.backtrack(limit); !ok {
			return res
		}
	}
}

// next returns the next PODEM decision: an objective that activates the
// fault or advances the D-frontier, backtraced to a source. ok=false
// means the current branch is dead — the site holds the stuck value, no
// frontier gate has an X path to an observation point, or no objective
// backtraces to a source.
func (m *machine) next() (src int, v value, ok bool) {
	if m.activationConflict() {
		return 0, vX, false
	}
	var frontier []int
	if m.activated() {
		frontier = m.dFrontier()
		if len(frontier) == 0 || !m.xPathExists(frontier) {
			return 0, vX, false
		}
	}
	net, val, ok := m.objective(frontier)
	if !ok {
		return 0, vX, false
	}
	return m.backtrace(net, val)
}

// justify runs the justification decision loop on this machine from the
// state begin or an earlier justify left: it searches for a source
// assignment with m.good(net) == target, and its limit works as search's
// does. m.backtracks counts the flips (the ATPG effort metric). On
// success the assignment is left in m.assign; copy it out before
// releasing the machine. The machine must have been acquired with the
// trivial fault {Gate: net, Pin: -1} and stuck = target.not() so the good
// machine is authoritative.
func (m *machine) justify(net int, target value, limit int) podemResult {
	for {
		if m.good(net) == target {
			return testFound
		}
		if m.good(net) == vX {
			if src, v, ok := m.backtrace(net, target); ok {
				m.decide(src, v)
				continue
			}
		}
		// Defined-but-wrong value or no X path: backtrack.
		if res, ok := m.backtrack(limit); !ok {
			return res
		}
	}
}

// splitmix64 is the SplitMix64 output function: a bijective avalanche
// mixer whose outputs over any input sequence are statistically
// independent. It keys the per-fault don't-care fill streams (and matches
// the construction internal/chaos uses for schedule-independent fault
// decisions).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// fillRNG is a SplitMix64 bit stream for don't-care fill. Each fault gets
// its own stream keyed on (seed, fault index), so the fill bits of a
// pattern depend only on which fault produced it — never on how many
// faults were skipped before it or on the worker interleaving of the
// speculative phase. This is what keeps the parallel deterministic phase
// byte-identical to the serial one at any worker count.
type fillRNG struct {
	s    uint64
	bits uint64
	n    int
}

// fillSeed derives the per-fault fill stream key.
func fillSeed(seed int64, fi int) uint64 {
	return splitmix64(uint64(seed) ^ splitmix64(uint64(fi)+0x1715_51aa_bb5e_f33d))
}

// newFillRNG returns the fill stream of fault index fi under the config
// seed.
func newFillRNG(seed int64, fi int) fillRNG {
	return fillRNG{s: fillSeed(seed, fi)}
}

// bit draws the next fill bit.
func (r *fillRNG) bit() bool {
	if r.n == 0 {
		r.s += 0x9e3779b97f4a7c15
		x := r.s
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		r.bits = x
		r.n = 64
	}
	b := r.bits&1 == 1
	r.bits >>= 1
	r.n--
	return b
}

// fill converts an assignment to concrete input values, replacing X
// entries with bits drawn from the per-fault fill stream.
func fill(assign []value, rng *fillRNG) []bool {
	out := make([]bool, len(assign))
	for i, v := range assign {
		switch v {
		case v1:
			out[i] = true
		case v0:
			out[i] = false
		default:
			out[i] = rng.bit()
		}
	}
	return out
}
