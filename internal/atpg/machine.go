// Package atpg generates compacted transition-delay-fault test sets — the
// substitute for the commercial ATPG the paper uses ("compacted transition
// delay fault test sets with an average test coverage of over 99.9%").
//
// Tests are enhanced-scan pattern pairs (V1, V2): V1 justifies the
// pre-transition value at the fault site, V2 is a PODEM-generated
// stuck-at-style test that launches the transition and propagates the
// effect to an observation point. A 64-way parallel-pattern simulator
// (package logic) drives random-pattern generation, fault dropping and
// reverse-order static compaction.
package atpg

import (
	"cmp"
	"slices"
	"sync"

	"fastmon/internal/circuit"
	"fastmon/internal/fault"
)

// value is the 3-valued logic domain of the test generator.
type value uint8

const (
	vX value = iota // unassigned / unknown
	v0
	v1
)

func (v value) String() string {
	switch v {
	case v0:
		return "0"
	case v1:
		return "1"
	}
	return "X"
}

// not inverts a defined value and keeps X.
func (v value) not() value {
	switch v {
	case v0:
		return v1
	case v1:
		return v0
	}
	return vX
}

// evalTab[k][set][par] is the 3-valued output of a gate of kind k whose
// input values form set (bit 1<<v set when some input is v) and whose
// number of v1 inputs has parity par. Every combinational function here
// depends on its inputs only through that pair: AND-like gates on whether
// some input is 0 or X, OR-like gates on whether some input is 1 or X, and
// XOR-like gates on whether some input is X and on the parity. Buf and Not
// are the one-input AND and NAND.
var evalTab = func() (t [circuit.DFF][8][2]value) {
	for k := circuit.Buf; k <= circuit.Xnor; k++ {
		for set := 1; set < 8; set++ {
			some := func(v value) bool { return set&(1<<v) != 0 }
			for par := 0; par < 2; par++ {
				var out value
				switch k {
				case circuit.Buf, circuit.Not, circuit.And, circuit.Nand:
					out = v1
					if some(v0) {
						out = v0
					} else if some(vX) {
						out = vX
					}
				case circuit.Or, circuit.Nor:
					out = v0
					if some(v1) {
						out = v1
					} else if some(vX) {
						out = vX
					}
				default: // Xor, Xnor
					out = v0
					if some(vX) {
						out = vX
					} else if par == 1 {
						out = v1
					}
				}
				if k.Inverting() {
					out = out.not()
				}
				t[k][set][par] = out
			}
		}
	}
	return t
}()

// controlling returns the controlling input value of the kind and whether
// one exists (XOR-family gates have none).
func controlling(kind circuit.Kind) (value, bool) {
	switch kind {
	case circuit.And, circuit.Nand:
		return v0, true
	case circuit.Or, circuit.Nor:
		return v1, true
	}
	return vX, false
}

// analysis holds the fault-independent guidance data shared by every
// PODEM machine of one circuit: SCOAP-like controllability costs,
// observability depths, and the tap/source index tables. Computing it
// once per circuit instead of once per fault dominates ATPG throughput on
// large designs. It also owns the machine pool: PODEM scratch state
// (assignment, dual machine values, implication worklist, search stacks) is
// recycled across faults instead of reallocated per target, and the pool
// is safe for the concurrent speculative workers of the parallel phase.
type analysis struct {
	c        *circuit.Circuit
	taps     []circuit.Tap
	srcs     []int   // cached c.Sources() (per-call allocation otherwise)
	srcIdx   []int   // per gate: source order index (-1: not a source)
	cc0, cc1 []int   // SCOAP-style controllability costs per net
	obsDepth []int   // min fanout hops to an observation point (-1: none)
	rank     []int32 // per gate: D-frontier priority (see computeCosts)
	tapGate  []bool  // per gate: is its output an observation point?

	pool sync.Pool // *machine scratch, recycled across faults
}

// machine is the dual good/faulty 3-valued circuit state of one PODEM run.
// The faulty machine forces the fault site to its stuck value (the V1
// value of the site, which a gross transition delay holds through the
// capture edge).
type machine struct {
	*analysis
	flt   fault.Fault
	stuck value // forced value at the site in the faulty machine
	// backtracks counts decision flips of the last run/justification —
	// the ATPG effort metric surfaced through Stats.Backtracks.
	backtracks int
	// assign holds the current source decisions (indexed by source order).
	assign []value
	good   []value // per gate
	bad    []value // per gate (faulty machine)

	// siteTaps lists the tap-gate IDs inside the fanout cone of the fault
	// site net (or the site net itself when observed directly): the only
	// observation points a fault effect can reach.
	siteTaps []int

	// wl is the event queue of implySrc; it is empty between decisions.
	wl *circuit.Worklist
	// trail logs the (good, bad) pair of every gate implySrc changed,
	// before the change, in order; each decision records the trail length
	// it started at, and backtracking restores the log down to it. Values
	// only refine from X along the decision stack, so a gate enters the
	// trail at most twice: its capacity of 2·len(gates) is allocated once
	// per pooled machine.
	trail []undo

	// Reusable per-decision scratch: the PODEM decision stack, the
	// D-frontier buffer, and the visited set and stack of the frontier
	// walk and the X-path check (seenVer[id] == seenCur marks visited).
	// All survive release/acquire cycles so steady-state PODEM allocates
	// nothing.
	stack    []decision
	frontier []int
	seenVer  []int
	seenCur  int
	xstack   []int
}

func newAnalysis(c *circuit.Circuit) *analysis {
	n := len(c.Gates)
	a := &analysis{
		c:       c,
		taps:    c.Taps(),
		srcs:    c.Sources(),
		srcIdx:  make([]int, n),
		tapGate: make([]bool, n),
	}
	for id := range a.srcIdx {
		a.srcIdx[id] = -1
	}
	for i, id := range a.srcs {
		a.srcIdx[id] = i
	}
	for _, tap := range a.taps {
		a.tapGate[tap.Gate] = true
	}
	a.computeCosts()
	return a
}

// undo is one trail entry: a gate and its (good, bad) pair before
// implySrc changed it.
type undo struct {
	id        int32
	good, bad value
}

// newMachineWith acquires a machine from the analysis pool and retargets
// it at the given fault. Callers must return it with release when the
// run's results have been copied out; the pool keeps steady-state PODEM
// allocation-free even across concurrent speculative workers.
func newMachineWith(an *analysis, f fault.Fault, stuck value) *machine {
	m, _ := an.pool.Get().(*machine)
	if m == nil {
		n := len(an.c.Gates)
		m = &machine{
			analysis: an,
			assign:   make([]value, len(an.srcs)),
			good:     make([]value, n),
			bad:      make([]value, n),
			wl:       an.c.NewWorklist(),
			trail:    make([]undo, 0, 2*n),
			seenVer:  make([]int, n),
		}
	}
	m.reset(f, stuck)
	return m
}

// release returns a machine to its analysis pool. The machine must not be
// used afterwards; in particular m.assign is recycled, so copy it first.
func (an *analysis) release(m *machine) { an.pool.Put(m) }

// reset retargets a pooled machine at a new fault. good/bad need no
// clearing (imply rewrites every gate before they are read), the worklist
// is always left drained, the search loops empty the decision stack and
// trail when they start, and seenVer survives because its versions are
// monotone.
func (m *machine) reset(f fault.Fault, stuck value) {
	m.flt, m.stuck = f, stuck
	m.backtracks = 0
	for i := range m.assign {
		m.assign[i] = vX
	}
	site := m.siteNet()
	m.siteTaps = m.siteTaps[:0]
	if m.tapGate[site] {
		m.siteTaps = append(m.siteTaps, site)
	}
	for _, id := range m.c.FanoutCone(site) {
		if m.tapGate[id] {
			m.siteTaps = append(m.siteTaps, id)
		}
	}
}

// computeCosts derives SCOAP-like controllability costs and the fanout
// distance to the nearest observation point. They guide backtrace input
// selection and D-frontier ordering.
func (m *analysis) computeCosts() {
	n := len(m.c.Gates)
	m.cc0 = make([]int, n)
	m.cc1 = make([]int, n)
	for _, id := range m.srcs {
		m.cc0[id], m.cc1[id] = 1, 1
	}
	for _, id := range m.c.Topo() {
		g := &m.c.Gates[id]
		switch g.Kind {
		case circuit.Buf:
			m.cc0[id] = m.cc0[g.Fanin[0]] + 1
			m.cc1[id] = m.cc1[g.Fanin[0]] + 1
		case circuit.Not:
			m.cc0[id] = m.cc1[g.Fanin[0]] + 1
			m.cc1[id] = m.cc0[g.Fanin[0]] + 1
		case circuit.And, circuit.Nand:
			sum1, min0 := 1, int(1e9)
			for _, f := range g.Fanin {
				sum1 += m.cc1[f]
				if m.cc0[f] < min0 {
					min0 = m.cc0[f]
				}
			}
			if g.Kind == circuit.And {
				m.cc1[id], m.cc0[id] = sum1, min0+1
			} else {
				m.cc0[id], m.cc1[id] = sum1, min0+1
			}
		case circuit.Or, circuit.Nor:
			sum0, min1 := 1, int(1e9)
			for _, f := range g.Fanin {
				sum0 += m.cc0[f]
				if m.cc1[f] < min1 {
					min1 = m.cc1[f]
				}
			}
			if g.Kind == circuit.Or {
				m.cc0[id], m.cc1[id] = sum0, min1+1
			} else {
				m.cc1[id], m.cc0[id] = sum0, min1+1
			}
		default: // Xor, Xnor: rough symmetric estimate
			sum := 1
			for _, f := range g.Fanin {
				if m.cc0[f] < m.cc1[f] {
					sum += m.cc0[f]
				} else {
					sum += m.cc1[f]
				}
			}
			m.cc0[id], m.cc1[id] = sum, sum
		}
	}
	m.obsDepth = make([]int, n)
	for i := range m.obsDepth {
		m.obsDepth[i] = -1
	}
	topo := m.c.Topo()
	for id := range m.c.Gates {
		if m.tapGate[id] {
			m.obsDepth[id] = 0
		}
	}
	for i := len(topo) - 1; i >= 0; i-- {
		id := topo[i]
		best := m.obsDepth[id]
		for _, fo := range m.c.Gates[id].Fanout {
			if m.c.Gates[fo].Kind == circuit.DFF {
				continue
			}
			if d := m.obsDepth[fo]; d >= 0 && (best < 0 || d+1 < best) {
				best = d + 1
			}
		}
		m.obsDepth[id] = best
	}
	// rank orders the combinational gates by observation depth, closest
	// first and unobservable last, ties in topological order: the order
	// dFrontier returns its gates in.
	depth := func(id int) int {
		if d := m.obsDepth[id]; d >= 0 {
			return d
		}
		return 1 << 30
	}
	order := slices.Clone(topo)
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(depth(a), depth(b)) })
	m.rank = make([]int32, n)
	for r, id := range order {
		m.rank[id] = int32(r)
	}
}

// cost returns the controllability cost of setting net to v.
func (m *machine) cost(net int, v value) int {
	if v == v0 {
		return m.cc0[net]
	}
	return m.cc1[net]
}

// siteNet returns the gate whose output signal is the fault site (the
// driving net for pin faults).
func (m *machine) siteNet() int {
	if m.flt.Pin < 0 {
		return m.flt.Gate
	}
	return m.c.Gates[m.flt.Gate].Fanin[m.flt.Pin]
}

// evalAt recomputes good and bad for one combinational gate from its
// current fanin values in a single pass over the fanin list, forcing the
// faulty machine's stuck value onto the fault pin (or the gate output)
// inline.
func (m *machine) evalAt(id int) {
	g := &m.c.Gates[id]
	pin := -1
	if id == m.flt.Gate {
		pin = m.flt.Pin
	}
	// Value sets and v1-parities of the good and faulty inputs; v1 is the
	// only value with bit 1 set, so v>>1 counts it.
	var gset, bset, gpar, bpar value
	for p, f := range g.Fanin {
		gv, bv := m.good[f], m.bad[f]
		if p == pin {
			bv = m.stuck
		}
		gset |= 1 << gv
		bset |= 1 << bv
		gpar ^= gv >> 1
		bpar ^= bv >> 1
	}
	m.good[id] = evalTab[g.Kind][gset][gpar]
	if id == m.flt.Gate && m.flt.Pin < 0 {
		m.bad[id] = m.stuck
	} else {
		m.bad[id] = evalTab[g.Kind][bset][bpar]
	}
}

// imply evaluates both machines from the current source assignment.
func (m *machine) imply() {
	for i, id := range m.srcs {
		m.good[id] = m.assign[i]
		m.bad[id] = m.assign[i]
	}
	for _, id := range m.c.Topo() {
		m.evalAt(id)
	}
}

// implySrc propagates the value just decided for one source — the
// per-decision cost of the PODEM loop. Precondition: the source was X
// before the decision. backtrace only returns X sources, and backtrack
// undoes a decision to X before it implies the opposite value.
//
// It is event-driven: the worklist hands out, in level order, exactly the
// gates with a fanin that changed during this call, and only gates whose
// good or faulty value moved queue their own fanouts. So the cost tracks
// the region that actually changes, not the structural fanout cone, and
// every gate is evaluated after all of its changed fanins and at most
// once. 3-valued evaluation under the constant fault forcing is monotone:
// refining a source from X can only refine gates from X, never change a
// defined value. So a popped gate already defined in both machines is
// skipped, and every gate that does change is logged on the trail first.
// The result equals a full imply().
func (m *machine) implySrc(srcIdx int) {
	src := m.srcs[srcIdx]
	nv := m.assign[srcIdx]
	m.trail = append(m.trail, undo{int32(src), m.good[src], m.bad[src]})
	m.good[src], m.bad[src] = nv, nv
	m.wl.PushFanout(src)
	for {
		id, ok := m.wl.Pop()
		if !ok {
			return
		}
		og, ob := m.good[id], m.bad[id]
		if og != vX && ob != vX {
			continue
		}
		m.evalAt(id)
		if m.good[id] != og || m.bad[id] != ob {
			m.trail = append(m.trail, undo{int32(id), og, ob})
			m.wl.PushFanout(id)
		}
	}
}

// undoTo restores every gate changed since the trail held mark entries,
// newest first, and truncates the trail there.
func (m *machine) undoTo(mark int) {
	for i := len(m.trail) - 1; i >= mark; i-- {
		u := m.trail[i]
		m.good[u.id], m.bad[u.id] = u.good, u.bad
	}
	m.trail = m.trail[:mark]
}

// effect reports whether net s carries a defined fault effect.
func (m *machine) effect(s int) bool {
	return m.good[s] != vX && m.bad[s] != vX && m.good[s] != m.bad[s]
}

// detected reports whether any observation point carries the fault effect.
// Only taps inside the site cone can.
func (m *machine) detected() bool {
	for _, tg := range m.siteTaps {
		if m.effect(tg) {
			return true
		}
	}
	return false
}

// activated reports whether the fault site currently launches an effect:
// the good value is defined and differs from the stuck value.
func (m *machine) activated() bool {
	s := m.siteNet()
	return m.good[s] != vX && m.good[s] != m.stuck
}

// activationConflict reports whether activation is impossible under the
// current assignment (site value defined and equal to the stuck value).
func (m *machine) activationConflict() bool {
	s := m.siteNet()
	return m.good[s] != vX && m.good[s] == m.stuck
}

// dFrontier returns the gates through which the fault effect can still
// advance: gates not yet fully defined in both machines with a fanin that
// carries a defined effect or, for a pin fault, the activated fault gate.
// A defined effect at a gate's output needs one at some fanin or at the
// forced fault pin (fanins equal or X in the two machines leave outputs
// equal or X, by monotonicity), so every effect lies on a chain of effects
// from the fault origin. The walk follows those chains only, collecting
// the fanouts they reach that are X in either machine. The result is
// sorted by distance to the nearest observation point, closest first,
// ties in topological order.
func (m *machine) dFrontier() []int {
	out := m.frontier[:0]
	m.seenCur++
	seen, cur := m.seenVer, m.seenCur
	stack := m.xstack[:0]
	visit := func(id int) {
		if seen[id] == cur {
			return
		}
		seen[id] = cur
		switch g, b := m.good[id], m.bad[id]; {
		case g == vX || b == vX:
			out = append(out, id)
		case g != b:
			stack = append(stack, id)
		}
	}
	switch {
	case m.flt.Pin >= 0:
		// The forced pin carries the effect into the fault gate.
		if m.activated() {
			visit(m.flt.Gate)
		}
	case m.effect(m.flt.Gate):
		stack = append(stack, m.flt.Gate)
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, fo := range m.c.Gates[id].Fanout {
			if m.c.Gates[fo].Kind != circuit.DFF {
				visit(fo)
			}
		}
	}
	m.xstack = stack[:0]
	// Insertion sort by rank: frontiers are small and this runs once per
	// decision, where a library sort's closure would allocate.
	for i := 1; i < len(out); i++ {
		v, rv := out[i], m.rank[out[i]]
		j := i
		for ; j > 0 && m.rank[out[j-1]] > rv; j-- {
			out[j] = out[j-1]
		}
		out[j] = v
	}
	m.frontier = out
	return out
}

// xPathExists reports whether some frontier gate still has a path of
// not-fully-defined gates to an observation point — the PODEM X-path
// check that prunes dead search branches early. The visited set is the
// machine's versioned seenVer array (O(1) clear per call).
func (m *machine) xPathExists(frontier []int) bool {
	allowed := func(id int) bool { return m.good[id] == vX || m.bad[id] == vX }
	m.seenCur++
	seen, cur := m.seenVer, m.seenCur
	stack := m.xstack[:0]
	defer func() { m.xstack = stack[:0] }()
	for _, gd := range frontier {
		if seen[gd] != cur && allowed(gd) {
			seen[gd] = cur
			stack = append(stack, gd)
		}
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if m.tapGate[id] {
			return true
		}
		for _, fo := range m.c.Gates[id].Fanout {
			if m.c.Gates[fo].Kind == circuit.DFF {
				// The D pin itself is the observation point.
				return true
			}
			if seen[fo] != cur && allowed(fo) {
				seen[fo] = cur
				stack = append(stack, fo)
			}
		}
	}
	return false
}
