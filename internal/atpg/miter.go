package atpg

import (
	"fastmon/internal/circuit"
	"fastmon/internal/fault"
)

// The SAT proofs of untestability (DESIGN.md §14). PODEM runs satPrefix
// backtracks first; a search it has not decided by then goes to the
// solver, and an UNSAT miter ends it as untestable. Any other verdict
// resumes the same PODEM search up to Config.MaxBacktracks. None of the
// three is a Config field: Config is hashed into the cache key, and
// verdicts must not depend on a knob.
const (
	// satPrefix is the number of PODEM backtracks before SAT is asked.
	// 16 and 64 measured alike on the ISCAS rows; 128 and 200 were slower.
	satPrefix = 32
	// satMaxConflicts bounds one query. No query of the 12 suite circuits
	// reached it.
	satMaxConflicts = 1000
	// satMaxGates bounds the good region of a miter (the fault cone and
	// its transitive fanin). Every ISCAS-class circuit of the suite fits;
	// on the largest industrial-class ones a query costs more than the
	// aborted searches it would save.
	satMaxGates = 1500
)

// prover is one worker's SAT arena: the solver and the per-gate tables
// the miter encoder marks and numbers gates in. Generate keeps one per
// worker, so a worker's queries reuse its arrays, and every query starts
// from a fresh solver state, so a verdict is a function of the circuit
// and the query alone.
type prover struct {
	*analysis
	sat satSolver
	// g holds the encoder's per-gate marks and literals; it is made at
	// the first query.
	g   []proverGate
	cur uint32
	// region and cone list the marked gates; ins and lits are clause
	// scratch.
	region, cone, ins, lits []int32
	nextVar                 int32
}

// proverGate is one gate's entry in the prover's table. inRegion == cur
// marks the good region and inCone == cur the faulty cone; the versions
// are monotone, so nothing is cleared between queries. good, bad and act
// are the gate's literals in the good machine, in the faulty one and of
// its active-path variable.
type proverGate struct {
	inRegion, inCone uint32
	good, bad, act   int32
}

// begin starts a query: it makes the tables at the first one, and marks
// no gate. The walks stop at satMaxGates gates, so the gate lists never
// grow.
func (p *prover) begin() {
	if p.g == nil {
		k := min(len(p.c.Gates), satMaxGates)
		lists := make([]int32, 2*k+32)
		p.g = make([]proverGate, len(p.c.Gates))
		p.region, p.cone = lists[:0:k], lists[k:k:2*k]
		p.ins, p.lits = lists[2*k:2*k:2*k+16], lists[2*k+16:2*k+16]
	}
	p.cur++
}

// litOf is the literal of the constant v (variable 0 is fixed true).
func litOf(v value) int32 {
	if v == v1 {
		return 0
	}
	return 1
}

// collectRegion extends p.region, which holds the gates already marked,
// with their transitive fanin, stopping at the sources. ok=false means
// the region outgrew satMaxGates.
func (p *prover) collectRegion() bool {
	for i := 0; i < len(p.region); i++ {
		id := p.region[i]
		if k := p.kind[id]; k == circuit.Input || k == circuit.DFF {
			continue
		}
		for _, f := range p.fin[p.finOff[id]:p.finOff[id+1]] {
			if p.g[f].inRegion != p.cur {
				if len(p.region) == satMaxGates {
					return false
				}
				p.g[f].inRegion = p.cur
				p.region = append(p.region, f)
			}
		}
	}
	return true
}

// auxVars counts the variables a gate's encoding needs beyond its output:
// an XOR of k inputs is a chain of k-1 two-input XORs.
func (p *prover) auxVars(id int32) int {
	k := p.kind[id]
	if n := int(p.finOff[id+1] - p.finOff[id]); (k == circuit.Xor || k == circuit.Xnor) && n > 2 {
		return n - 2
	}
	return 0
}

// newVar returns the positive literal of the next unused variable.
func (p *prover) newVar() int32 {
	v := p.nextVar
	p.nextVar++
	return 2 * v
}

// clause adds the clause of the given literals.
func (p *prover) clause(lits ...int32) {
	p.lits = append(p.lits[:0], lits...)
	p.sat.addClause(p.lits)
}

// encodeGate adds the clauses of out = kind(ins). A gate has at least one
// input (circuit.Finalize rejects others), and one of a single input is a
// buffer or an inverter whatever its kind.
func (p *prover) encodeGate(k circuit.Kind, out int32, ins []int32) {
	if k.Inverting() {
		out ^= 1
	}
	switch {
	case len(ins) == 1:
		p.clause(out^1, ins[0])
		p.clause(out, ins[0]^1)
	case k == circuit.And || k == circuit.Nand:
		p.lits = append(p.lits[:0], out)
		for _, in := range ins {
			p.lits = append(p.lits, in^1)
		}
		p.sat.addClause(p.lits)
		for _, in := range ins {
			p.clause(out^1, in)
		}
	case k == circuit.Or || k == circuit.Nor:
		p.lits = append(p.lits[:0], out^1)
		p.lits = append(p.lits, ins...)
		p.sat.addClause(p.lits)
		for _, in := range ins {
			p.clause(out, in^1)
		}
	default: // Xor, Xnor: a chain of two-input XORs
		acc := ins[0]
		for i, b := range ins[1:] {
			t := out
			if i < len(ins)-2 {
				t = p.newVar()
			}
			p.clause(t^1, acc, b)
			p.clause(t^1, acc^1, b^1)
			p.clause(t, acc^1, b)
			p.clause(t, acc, b^1)
			acc = t
		}
	}
}

// encodeRegion numbers the good region's gates and adds the clauses of
// every gate in it that is not a source.
func (p *prover) encodeRegion() {
	for _, id := range p.region {
		p.g[id].good = p.newVar()
	}
	for _, id := range p.region {
		if k := p.kind[id]; k != circuit.Input && k != circuit.DFF {
			p.ins = p.ins[:0]
			for _, f := range p.fin[p.finOff[id]:p.finOff[id+1]] {
				p.ins = append(p.ins, p.g[f].good)
			}
			p.encodeGate(k, p.g[id].good, p.ins)
		}
	}
}

// launch decides whether fault f, with the site's faulty machine forced to
// stuck, has a launch vector: a source assignment that sets the site to
// the opposite value and carries a difference to an observation point, as
// PODEM's run searches for. The miter's good machine covers the transitive
// fanin of the fault gate's combinational fanout cone, which holds the
// site; its faulty copy covers the cone, with the forced pin or output.
// Active-path variables a_g (Larrabee's D-chain) require a difference at
// the fault gate, and at each active non-observed gate one active fanout:
// with a plain disjunction of observed differences instead, the ISCAS
// rows' queries took about 200 times as many conflicts.
func (p *prover) launch(f fault.Fault, stuck value) satResult {
	p.begin()
	fg := int32(f.Gate)
	p.cone = append(p.cone[:0], fg)
	p.g[fg].inCone = p.cur
	for i := 0; i < len(p.cone); i++ {
		for _, fo := range p.c.CombFanout(int(p.cone[i])) {
			if p.g[fo].inCone != p.cur {
				if len(p.cone) == satMaxGates {
					return satOverBudget
				}
				p.g[fo].inCone = p.cur
				p.cone = append(p.cone, fo)
			}
		}
	}
	p.region = append(p.region[:0], p.cone...)
	for _, id := range p.cone {
		p.g[id].inRegion = p.cur
	}
	if !p.collectRegion() {
		return satOverBudget
	}

	nv := 1 + len(p.region) + 2*len(p.cone)
	for _, id := range p.region {
		nv += p.auxVars(id)
	}
	for _, id := range p.cone {
		nv += p.auxVars(id)
	}
	p.sat.reset(nv)
	p.nextVar = 0
	p.clause(p.newVar()) // variable 0 is the constant true
	p.encodeRegion()
	stuckLit := litOf(stuck)
	for _, id := range p.cone {
		p.g[id].bad = p.newVar()
		p.g[id].act = p.newVar()
	}
	if f.Pin < 0 {
		p.g[fg].bad = stuckLit
	}
	for _, id := range p.cone {
		if id == fg && f.Pin < 0 {
			continue
		}
		p.ins = p.ins[:0]
		for pin, h := range p.fin[p.finOff[id]:p.finOff[id+1]] {
			switch {
			case id == fg && pin == f.Pin:
				p.ins = append(p.ins, stuckLit)
			case p.g[h].inCone == p.cur:
				p.ins = append(p.ins, p.g[h].bad)
			default:
				p.ins = append(p.ins, p.g[h].good)
			}
		}
		p.encodeGate(p.kind[id], p.g[id].bad, p.ins)
	}
	site := f.Gate
	if f.Pin >= 0 {
		site = int(p.fin[p.finOff[fg]+int32(f.Pin)])
	}
	p.clause(p.g[site].good ^ litOf(stuck) ^ 1) // good(site) = ¬stuck
	for _, id := range p.cone {
		a, g, b := p.g[id].act, p.g[id].good, p.g[id].bad
		p.clause(a^1, g, b)
		p.clause(a^1, g^1, b^1)
		if !p.tapGate[id] {
			p.lits = append(p.lits[:0], a^1)
			for _, fo := range p.c.CombFanout(int(id)) {
				p.lits = append(p.lits, p.g[fo].act)
			}
			p.sat.addClause(p.lits)
		}
	}
	p.clause(p.g[fg].act)
	return p.sat.solve(satMaxConflicts)
}

// justify decides whether net can take value target in the good machine,
// as a justification search does: the miter is the net's transitive
// fanin with one unit clause.
func (p *prover) justify(net int, target value) satResult {
	p.begin()
	p.region = append(p.region[:0], int32(net))
	p.g[net].inRegion = p.cur
	if !p.collectRegion() {
		return satOverBudget
	}
	nv := 1 + len(p.region)
	for _, id := range p.region {
		nv += p.auxVars(id)
	}
	p.sat.reset(nv)
	p.nextVar = 0
	p.clause(p.newVar())
	p.encodeRegion()
	p.clause(p.g[net].good ^ litOf(target))
	return p.sat.solve(satMaxConflicts)
}
