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

type decision struct {
	src     int // source index
	val     value
	flipped bool
}

// objective returns the next (net, value) objective: activate the fault if
// the site is still X, otherwise advance the D-frontier. ok=false means no
// objective exists (dead branch). The frontier is pre-sorted closest to an
// observation point first.
func (m *machine) objective(frontier []int) (net int, val value, ok bool) {
	s := m.siteNet()
	if m.good[s] == vX {
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
			if m.good[f] != vX {
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

// backtrace maps an objective to a source assignment by walking backwards
// through X-valued nets, choosing inputs by controllability cost: the
// cheapest input when one controlling input suffices, the hardest when all
// inputs must be non-controlling (fail-fast ordering).
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
			if m.good[f] != vX {
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

// run executes the PODEM decision loop. On success the source assignment
// (with X for don't-cares) is left in m.assign.
func (m *machine) run(maxBacktracks int) podemResult {
	stack := m.stack[:0]
	defer func() { m.stack = stack[:0] }()
	m.backtracks = 0
	m.imply() // initial all-X evaluation; decisions update incrementally
	for {
		if m.detected() {
			return testFound
		}
		fail := false
		var frontier []int
		if m.activationConflict() {
			fail = true
		} else if m.activated() {
			frontier = m.dFrontier()
			if len(frontier) == 0 || !m.xPathExists(frontier) {
				fail = true
			}
		}
		if !fail {
			net, val, ok := m.objective(frontier)
			if !ok {
				fail = true
			} else if src, v, ok2 := m.backtrace(net, val); !ok2 {
				fail = true
			} else {
				stack = append(stack, decision{src: src, val: v})
				m.assign[src] = v
				m.implySrc(src)
				continue
			}
		}
		// Backtrack: flip the most recent unflipped decision.
		for {
			if len(stack) == 0 {
				return untestable
			}
			top := &stack[len(stack)-1]
			if !top.flipped {
				top.flipped = true
				top.val = top.val.not()
				m.assign[top.src] = top.val
				m.implySrc(top.src)
				m.backtracks++
				if m.backtracks > maxBacktracks {
					return aborted
				}
				break
			}
			m.assign[top.src] = vX
			m.implySrc(top.src)
			stack = stack[:len(stack)-1]
		}
	}
}

// justify runs the justification decision loop on this machine: it
// searches for a source assignment with m.good[net] == target, reporting
// the number of backtracks spent (the ATPG effort metric). On success the
// assignment is left in m.assign; copy it out before releasing the
// machine. The machine must have been acquired with the trivial fault
// {Gate: net, Pin: -1} and stuck = target.not() so the good machine is
// authoritative.
func (m *machine) justify(net int, target value, maxBacktracks int) (int, podemResult) {
	stack := m.stack[:0]
	defer func() { m.stack = stack[:0] }()
	backtracks := 0
	m.imply()
	for {
		if m.good[net] == target {
			return backtracks, testFound
		}
		if m.good[net] == vX {
			if src, v, ok := m.backtrace(net, target); ok {
				stack = append(stack, decision{src: src, val: v})
				m.assign[src] = v
				m.implySrc(src)
				continue
			}
		}
		// Defined-but-wrong value or no X path: backtrack.
		for {
			if len(stack) == 0 {
				return backtracks, untestable
			}
			top := &stack[len(stack)-1]
			if !top.flipped {
				top.flipped = true
				top.val = top.val.not()
				m.assign[top.src] = top.val
				m.implySrc(top.src)
				backtracks++
				if backtracks > maxBacktracks {
					return backtracks, aborted
				}
				break
			}
			m.assign[top.src] = vX
			m.implySrc(top.src)
			stack = stack[:len(stack)-1]
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
