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

// A gate's packed state holds its good value in bits 0-1 and its faulty
// value in bits 2-3, so the state of gate id is m.state[id] and a gate
// is defined in both machines iff both fields are nonzero (vX is 0).

// setOf maps a packed state to its value-set bits: bit v for the good
// value v, bit 4+v for the faulty one.
var setOf = func() (t [16]uint8) {
	for s := range t {
		t[s] = 1<<(s&3) | 16<<(s>>2)
	}
	return t
}()

// tabIndex packs the accumulated value sets and the XOR of the input
// states into an evalTab index: bits 0-2 hold the good inputs' value set,
// bit 3 the parity of their v1 inputs, and bits 4-7 the same for the
// faulty inputs. v1 is the only value with bit 1 set, so the XOR of the
// states carries the good parity in bit 1 and the faulty one in bit 3.
func tabIndex(set, par uint8) uint8 { return set | (par&2)<<2 | (par&8)<<4 }

// evalTab[k][tabIndex(set, par)] is the packed output state of a gate of
// kind k whose good and faulty inputs form those value sets and parities.
// Every combinational function here depends on its inputs only through
// that pair: AND-like gates on whether some input is 0 or X, OR-like
// gates on whether some input is 1 or X, and XOR-like gates on whether
// some input is X and on the parity. Buf and Not are the one-input AND
// and NAND.
var evalTab = func() (t [circuit.DFF][256]uint8) {
	out := func(k circuit.Kind, set, par int) value {
		some := func(v value) bool { return set&(1<<v) != 0 }
		var v value
		switch k {
		case circuit.Buf, circuit.Not, circuit.And, circuit.Nand:
			v = v1
			if some(v0) {
				v = v0
			} else if some(vX) {
				v = vX
			}
		case circuit.Or, circuit.Nor:
			v = v0
			if some(v1) {
				v = v1
			} else if some(vX) {
				v = vX
			}
		default: // Xor, Xnor
			v = v0
			if some(vX) {
				v = vX
			} else if par == 1 {
				v = v1
			}
		}
		if k.Inverting() {
			v = v.not()
		}
		return v
	}
	for k := circuit.Buf; k <= circuit.Xnor; k++ {
		for i := range t[k] {
			t[k][i] = uint8(out(k, i&7, i>>3&1)) | uint8(out(k, i>>4&7, i>>7))<<2
		}
	}
	return t
}()

// decideTab[k][s] is the packed output of a gate of kind k when one of its
// inputs in packed state s alone decides it in both machines, whatever
// its other inputs are; it is 0 when s leaves either machine open. That
// covers Buf and Not at any defined input, And and Nand at 0, and Or and
// Nor at 1. It is read off evalTab with every other input X: by
// monotonicity a defined output stays defined, and equal, as those
// inputs refine. It does not apply to the fault gate, whose forced pin or
// output can differ from what its inputs say.
var decideTab = func() (t [circuit.DFF][16]uint8) {
	for k := circuit.Buf; k <= circuit.Xnor; k++ {
		for s := range t[k] {
			set := setOf[s]
			if k != circuit.Buf && k != circuit.Not {
				set |= setOf[0]
			}
			if out := evalTab[k][tabIndex(set, uint8(s))]; out&3 != 0 && out>>2 != 0 {
				t[k][s] = out
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
// observability depths, the tap/source index tables and the flat gate
// tables the implication kernel reads. Computing it once per circuit
// instead of once per fault dominates ATPG throughput on large designs.
// It also owns the machine pool: PODEM scratch state (assignment, packed
// machine states, implication worklist, search stacks) is recycled across
// faults instead of reallocated per target, and the pool is safe for the
// concurrent speculative workers of the parallel phase.
type analysis struct {
	c        *circuit.Circuit
	taps     []circuit.Tap
	srcs     []int   // cached c.Sources() (per-call allocation otherwise)
	srcIdx   []int   // per gate: source order index (-1: not a source)
	cc0, cc1 []int   // SCOAP-style controllability costs per net
	obsDepth []int   // min fanout hops to an observation point (-1: none)
	rank     []int32 // per gate: D-frontier priority (see computeCosts)
	tapGate  []bool  // per gate: is its output an observation point?

	// Flat gate tables: the fanins of gate id are fin[finOff[id]:finOff[id+1]],
	// its kind is kind[id]. evalAt reads them instead of c.Gates.
	finOff, fin []int32
	kind        []circuit.Kind

	pool sync.Pool // *machine scratch, recycled across faults
}

// machine is the dual good/faulty 3-valued circuit state of one PODEM run.
// The faulty machine forces the fault site to its stuck value (the V1
// value of the site, which a gross transition delay holds through the
// capture edge).
type machine struct {
	*analysis
	flt     fault.Fault
	fltGate int32 // flt.Gate, the one gate evalAt forces
	stuck   value // forced value at the site in the faulty machine
	// backtracks counts decision flips of the last run/justification —
	// the ATPG effort metric surfaced through Stats.Backtracks.
	backtracks int
	// assign holds the current source decisions (indexed by source order).
	assign []value
	// state holds each gate's packed good/faulty pair; read it through
	// good and bad.
	state []uint8

	// siteTaps lists the tap-gate IDs inside the fanout cone of the fault
	// site net (or the site net itself when observed directly): the only
	// observation points a fault effect can reach. run fills it.
	siteTaps []int

	// wl is the event queue of implySrc; it is empty between decisions.
	wl *circuit.Worklist
	// trail logs the packed state of every gate implySrc changed, before
	// the change, in order; each decision records the trail length it
	// started at, and backtracking restores the log down to it. Values
	// only refine from X along the decision stack, so a gate enters the
	// trail at most twice: its capacity of 2·len(gates) is allocated once
	// per pooled machine.
	trail []undo
	// changed holds the gates propagate still has to take the fanouts of;
	// a gate changes at most once per call, so len(gates) slots suffice.
	// decided counts the fanouts it decided without an evaluation.
	changed []int32
	decided int

	// Reusable per-decision scratch: the PODEM decision stack, the
	// D-frontier buffer, and the visited set and stack of the frontier
	// walk, the X-path check and the site-tap walk (seenVer[id] == seenCur
	// marks visited). All survive release/acquire cycles so steady-state
	// PODEM allocates nothing.
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
		kind:    make([]circuit.Kind, n),
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
	pins := 0
	for id := range c.Gates {
		a.kind[id] = c.Gates[id].Kind
		pins += len(c.Gates[id].Fanin)
	}
	flat := make([]int32, n+1, n+1+pins)
	for id := range c.Gates {
		for _, f := range c.Gates[id].Fanin {
			flat = append(flat, int32(f))
		}
		flat[id+1] = int32(len(flat) - n - 1)
	}
	a.finOff, a.fin = flat[:n+1], flat[n+1:]
	a.computeCosts()
	return a
}

// undo is one trail entry: a gate and its packed state before implySrc
// changed it.
type undo struct {
	id    int32
	state uint8
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
			state:    make([]uint8, n),
			wl:       an.c.NewWorklist(),
			trail:    make([]undo, 0, 2*n),
			changed:  make([]int32, 0, n),
			seenVer:  make([]int, n),
		}
	}
	m.reset(f, stuck)
	return m
}

// release returns a machine to its analysis pool. The machine must not be
// used afterwards; in particular m.assign is recycled, so copy it first.
func (an *analysis) release(m *machine) { an.pool.Put(m) }

// reset retargets a pooled machine at a new fault. The state needs no
// clearing here (begin sets it before it is read), the worklist is always
// left drained, the search loops empty the decision stack and trail when
// they start, and seenVer survives because its versions are monotone.
func (m *machine) reset(f fault.Fault, stuck value) {
	m.flt, m.fltGate, m.stuck = f, int32(f.Gate), stuck
	m.backtracks = 0
	for i := range m.assign {
		m.assign[i] = vX
	}
}

// findSiteTaps fills siteTaps with a walk of the site net's fanout cone.
// Only start needs them: justification never checks detection.
func (m *machine) findSiteTaps() {
	site := m.siteNet()
	m.siteTaps = m.siteTaps[:0]
	m.seenCur++
	seen, cur := m.seenVer, m.seenCur
	seen[site] = cur
	stack := append(m.xstack[:0], site)
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if m.tapGate[id] {
			m.siteTaps = append(m.siteTaps, id)
		}
		for _, fo := range m.c.CombFanout(id) {
			if seen[fo] != cur {
				seen[fo] = cur
				stack = append(stack, int(fo))
			}
		}
	}
	m.xstack = stack[:0]
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

// good and bad return gate id's value in the good and the faulty machine.
func (m *machine) good(id int) value { return value(m.state[id] & 3) }
func (m *machine) bad(id int) value  { return value(m.state[id] >> 2) }

// evalAt returns the packed state of one combinational gate computed from
// its fanins' current states, in one pass over the fanin list. The fault
// gate takes the forcing path, evalFault.
func (m *machine) evalAt(id int32) uint8 {
	if id == m.fltGate {
		return m.evalFault(id)
	}
	var set, par uint8
	for _, f := range m.fin[m.finOff[id]:m.finOff[id+1]] {
		s := m.state[f]
		set |= setOf[s&15]
		par ^= s
	}
	return evalTab[m.kind[id]][tabIndex(set, par)]
}

// evalFault evaluates the fault gate: the faulty machine's stuck value
// replaces the fault pin's faulty value, or the gate's faulty output.
func (m *machine) evalFault(id int32) uint8 {
	stuck := uint8(m.stuck) << 2
	var set, par uint8
	for p, f := range m.fin[m.finOff[id]:m.finOff[id+1]] {
		s := m.state[f]
		if p == m.flt.Pin {
			s = s&3 | stuck
		}
		set |= setOf[s&15]
		par ^= s
	}
	out := evalTab[m.kind[id]][tabIndex(set, par)]
	if m.flt.Pin < 0 {
		out = out&3 | stuck
	}
	return out
}

// implySrc propagates the value just decided for one source — the
// per-decision cost of the PODEM loop. Precondition: the source was X
// before the decision. backtrace only returns X sources, and backtrack
// undoes a decision to X before it implies the opposite value.
func (m *machine) implySrc(srcIdx int) {
	src := int32(m.srcs[srcIdx])
	nv := uint8(m.assign[srcIdx])
	m.trail = append(m.trail, undo{src, m.state[src]})
	m.state[src] = nv | nv<<2
	m.propagate(src)
}

// propagate carries the change of gate id, already set and logged, to
// every gate it implies, logging each gate on the trail before changing
// it. 3-valued evaluation under the constant fault forcing is monotone:
// refining a gate from X can only refine gates from X, never change a
// defined value. So a fanout already defined in both machines never
// changes again and is skipped. A fanout other than the fault gate that
// the changed state alone decides in both machines (decideTab) takes that
// value at once, with no queue entry and no fanin scan, and its own
// fanouts follow. Every other fanout is queued on the worklist, which
// hands gates back lowest level first; the fanouts of a gate sit on
// higher levels than the gate, so a popped gate sees final fanins, is
// evaluated at most once, and, when it changes, has its fanouts handled
// the same way. The result equals a full imply().
func (m *machine) propagate(id int32) {
	c, wl, state, kind, fltGate := m.c, m.wl, m.state, m.kind, m.fltGate
	trail, decided := m.trail, 0
	changed := append(m.changed[:0], id)
	for {
		for len(changed) > 0 {
			id := changed[len(changed)-1]
			changed = changed[:len(changed)-1]
			s := state[id] & 15
			for _, fo := range c.CombFanout(int(id)) {
				fs := state[fo]
				if fs&3 != 0 && fs>>2 != 0 {
					continue
				}
				if out := decideTab[kind[fo]][s]; out != 0 && fo != fltGate {
					trail = append(trail, undo{fo, fs})
					state[fo] = out
					decided++
					changed = append(changed, fo)
					continue
				}
				wl.Push(int(fo))
			}
		}
		for len(changed) == 0 {
			qid, ok := wl.Pop()
			if !ok {
				m.trail, m.changed = trail, changed
				m.decided += decided
				return
			}
			id := int32(qid)
			s := state[id]
			if s&3 != 0 && s>>2 != 0 {
				continue
			}
			if ns := m.evalAt(id); ns != s {
				trail = append(trail, undo{id, s})
				state[id] = ns
				changed = append(changed, id)
			}
		}
	}
}

// undoTo restores every gate changed since the trail held mark entries,
// newest first, and truncates the trail there.
func (m *machine) undoTo(mark int) {
	for i := len(m.trail) - 1; i >= mark; i-- {
		u := m.trail[i]
		m.state[u.id] = u.state
	}
	m.trail = m.trail[:mark]
}

// effect reports whether net s carries a defined fault effect.
func (m *machine) effect(s int) bool {
	g, b := m.good(s), m.bad(s)
	return g != vX && b != vX && g != b
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
	g := m.good(m.siteNet())
	return g != vX && g != m.stuck
}

// activationConflict reports whether activation is impossible under the
// current assignment (site value defined and equal to the stuck value).
func (m *machine) activationConflict() bool {
	g := m.good(m.siteNet())
	return g != vX && g == m.stuck
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
		switch g, b := m.good(id), m.bad(id); {
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
	allowed := func(id int) bool { return m.good(id) == vX || m.bad(id) == vX }
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
