package atpg

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"fastmon/internal/circuit"
	"fastmon/internal/fault"
)

// kernelCircuits is the implication differential workload: s27, c17 and
// generated circuits of varying size, depth and width.
func kernelCircuits(t *testing.T) []*circuit.Circuit {
	t.Helper()
	cs := []*circuit.Circuit{
		circuit.MustParseBench("s27", circuit.S27),
		circuit.MustParseBench("c17", circuit.C17),
	}
	rng := rand.New(rand.NewSource(2024))
	for i := 0; i < 22; i++ {
		gates := 40 + rng.Intn(260)
		cs = append(cs, circuit.MustGenerate(circuit.GenSpec{
			Name:    fmt.Sprintf("k%d", i),
			Gates:   gates,
			FFs:     rng.Intn(gates/8 + 1),
			Inputs:  3 + rng.Intn(14),
			Outputs: 2 + rng.Intn(8),
			Depth:   3 + rng.Intn(16),
			Seed:    rng.Int63(),
		}))
	}
	return cs
}

// imply is the reference implication the incremental kernel is tested
// against: it sets every source from the assignment and evaluates both
// machines of every combinational gate in topological order.
func (m *machine) imply() {
	for i, id := range m.srcs {
		v := uint8(m.assign[i])
		m.state[id] = v | v<<2
	}
	for _, id := range m.c.Topo() {
		m.state[id] = m.evalAt(int32(id))
	}
}

// matchImply fails the test unless m's state equals a from-scratch
// imply() of its assignment on ref, a machine for the same fault.
func matchImply(t *testing.T, m, ref *machine, when string) {
	t.Helper()
	copy(ref.assign, m.assign)
	ref.imply()
	for id, g := range m.c.Gates {
		if m.state[id] != ref.state[id] {
			t.Fatalf("%s fault %+v stuck %v %s: gate %s incremental good/bad %v/%v, imply() %v/%v",
				m.c.Name, m.flt, m.stuck, when, g.Name, m.good(id), m.bad(id), ref.good(id), ref.bad(id))
		}
	}
}

// TestBeginMatchesImply checks the set-up of every search: for every fault
// of every kernel circuit, begin on the PODEM machine and on its
// justification machine (the trivial fault on the site net, the source
// sites included) must leave the state of a from-scratch imply() of the
// all-X assignment and an empty trail. The machines come from the pool,
// still holding the previous fault's state.
func TestBeginMatchesImply(t *testing.T) {
	checked := 0
	for _, c := range kernelCircuits(t) {
		an := newAnalysis(c)
		for _, f := range fault.Universe(c) {
			stuck := v0
			if !f.Rising {
				stuck = v1
			}
			m := newMachineWith(an, f, stuck)
			for _, mf := range []struct {
				f     fault.Fault
				stuck value
			}{{f, stuck}, {fault.Fault{Gate: m.siteNet(), Pin: -1}, stuck.not()}} {
				m.reset(mf.f, mf.stuck)
				m.begin()
				if len(m.trail) != 0 {
					t.Fatalf("%s fault %+v: begin left %d trail entries", c.Name, mf.f, len(m.trail))
				}
				ref := newMachineWith(an, mf.f, mf.stuck)
				matchImply(t, m, ref, "after begin")
				an.release(ref)
				// Leave decisions behind for the next fault's begin.
				for i := 0; i < 3 && i < len(m.assign); i++ {
					m.decide(i, v1)
				}
				checked++
			}
			an.release(m)
		}
	}
	t.Logf("%d set-ups checked", checked)
}

// TestImplySrcMatchesImply drives random decision sequences through
// decide and backtrack, as PODEM does: decide sets a random X source to a
// random value, backtrack restores the trail to the newest unflipped
// decision and flips it. After every step, for output faults, pin faults,
// faults on gates that a controlling value can decide, and the
// source-site fault the justification machine uses, both machines must
// equal a from-scratch imply(), the trail must hold at most 2·len(gates)
// entries, and, when the fault is activated, dFrontier must equal the
// cone scan dFrontierScan element by element. Undoing every decision
// must return the all-X state.
//
// Floors keep every path exercised: frontiers of two or more gates,
// fanouts settle decided without an evaluation, and steps where a fanin
// of the fault gate holds a value that would decide the gate for any
// other gate but disagrees with its true (forced) state: the steps on
// which settle must leave the fault gate to the forcing path.
func TestImplySrcMatchesImply(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	steps, compared, multi, decided, forced := 0, 0, 0, 0, 0
	for _, c := range kernelCircuits(t) {
		an := newAnalysis(c)
		universe := fault.Universe(c)
		var faults []fault.Fault
		for len(faults) < 6 {
			f := universe[rng.Intn(len(universe))]
			if (f.Pin < 0) == (len(faults)%2 == 0) {
				faults = append(faults, f)
			}
		}
		for len(faults) < 10 {
			if f := universe[rng.Intn(len(universe))]; c.Gates[f.Gate].Kind < circuit.Xor {
				faults = append(faults, f)
			}
		}
		faults = append(faults, fault.Fault{Gate: an.srcs[rng.Intn(len(an.srcs))], Pin: -1})
		for _, f := range faults {
			stuck := v0
			if rng.Intn(2) == 1 {
				stuck = v1
			}
			m := newMachineWith(an, f, stuck)
			ref := newMachineWith(an, f, stuck)
			m.begin()
			m.decided = 0
			var xs []int
			for step := 0; step < 150; step++ {
				xs = xs[:0]
				for i, v := range m.assign {
					if v == vX {
						xs = append(xs, i)
					}
				}
				if len(m.stack) == 0 || (len(xs) > 0 && rng.Intn(3) > 0) {
					m.decide(xs[rng.Intn(len(xs))], fromBool(rng.Intn(2) == 1))
				} else {
					m.backtrack(math.MaxInt)
				}
				steps++
				when := fmt.Sprintf("step %d", step)
				if len(m.trail) > 2*len(c.Gates) {
					t.Fatalf("%s fault %+v %s: trail holds %d entries for %d gates",
						c.Name, f, when, len(m.trail), len(c.Gates))
				}
				matchImply(t, m, ref, when)
				if k := c.Gates[f.Gate].Kind; k != circuit.Input && k != circuit.DFF {
					for _, fi := range c.Gates[f.Gate].Fanin {
						if out := decideTab[k][m.state[fi]]; out != 0 && out != m.state[f.Gate] {
							forced++
							break
						}
					}
				}
				if !m.activated() {
					continue
				}
				got, want := m.dFrontier(), dFrontierScan(m)
				if !slices.Equal(got, want) {
					t.Fatalf("%s fault %+v %s: dFrontier %v, cone scan %v", c.Name, f, when, got, want)
				}
				compared++
				if len(want) >= 2 {
					multi++
				}
			}
			decided += m.decided
			// Undo every decision in one restore: a gate changed by several
			// of them must come back to its oldest logged value.
			m.undoTo(0)
			for _, d := range m.stack {
				m.assign[d.src] = vX
			}
			for i, v := range m.assign {
				if v != vX {
					t.Fatalf("%s fault %+v: source %d still %v after undoing every decision", c.Name, f, i, v)
				}
			}
			if len(m.trail) != 0 {
				t.Fatalf("%s fault %+v: %d trail entries left after undoing every decision", c.Name, f, len(m.trail))
			}
			matchImply(t, m, ref, "after undoing every decision")
			an.release(m)
			an.release(ref)
		}
	}
	if steps == 0 {
		t.Fatal("no implication steps ran")
	}
	t.Logf("%d steps, %d frontiers compared, %d of them with two or more gates, %d fanouts decided at push time, %d steps with a fault gate fed a deciding value it must not take",
		steps, compared, multi, decided, forced)
	if multi < 100 {
		t.Fatalf("only %d compared frontiers held two or more gates, want at least 100", multi)
	}
	if decided < 10000 {
		t.Fatalf("only %d fanouts were decided at push time, want at least 10000", decided)
	}
	if forced < 100 {
		t.Fatalf("only %d steps fed a fault gate a deciding value it must not take, want at least 100", forced)
	}
}

// dFrontierScan is the reference D-frontier dFrontier is tested against: a
// scan of the whole fault-site cone in topological order for gates not
// fully defined in both machines with a fanin that carries a defined
// effect (or the activated fault gate of a pin fault), stably sorted by
// observation depth.
func dFrontierScan(m *machine) []int {
	var out []int
	for _, id := range m.c.FanoutCone(m.siteNet()) {
		if m.good(id) != vX && m.bad(id) != vX {
			continue
		}
		if id == m.flt.Gate && m.flt.Pin >= 0 && m.activated() {
			out = append(out, id)
			continue
		}
		for _, f := range m.c.Gates[id].Fanin {
			if m.effect(f) {
				out = append(out, id)
				break
			}
		}
	}
	depth := func(id int) int {
		if d := m.obsDepth[id]; d >= 0 {
			return d
		}
		return 1 << 30
	}
	sort.SliceStable(out, func(i, j int) bool { return depth(out[i]) < depth(out[j]) })
	return out
}

// TestEvalAtMatchesEval3 checks the packed evaluator exhaustively: for
// every combinational kind at arity 1-4, every pair of 3-valued good/bad
// input vectors, and every forcing — none, each input pin, or the output —
// to either stuck value, evalAt must equal eval3 on the good inputs and on
// the bad inputs with the forcing applied. Without a forcing on the gate,
// every input whose state decideTab marks as deciding must give evalAt's
// output: the value settle assigns without an evaluation.
func TestEvalAtMatchesEval3(t *testing.T) {
	vals := []value{vX, v0, v1}
	decisions := 0
	for k := circuit.Buf; k <= circuit.Xnor; k++ {
		maxArity := 4
		if k == circuit.Buf || k == circuit.Not {
			maxArity = 1
		}
		for arity := 1; arity <= maxArity; arity++ {
			c := circuit.New("eval")
			ins := make([]int, arity)
			for i := range ins {
				ins[i] = c.AddGate(fmt.Sprintf("i%d", i), circuit.Input)
			}
			g := c.AddGate("g", k, ins...)
			c.MarkOutput(g)
			if err := c.Finalize(); err != nil {
				t.Fatal(err)
			}
			an := newAnalysis(c)
			// Forcings: a fault elsewhere (none), each input pin, the output.
			forcings := []fault.Fault{{Gate: ins[0], Pin: -1}}
			for p := 0; p < arity; p++ {
				forcings = append(forcings, fault.Fault{Gate: g, Pin: p})
			}
			forcings = append(forcings, fault.Fault{Gate: g, Pin: -1})

			n := 1
			for i := 0; i < arity; i++ {
				n *= 3
			}
			gin := make([]value, arity)
			bin := make([]value, arity)
			for _, f := range forcings {
				for _, stuck := range []value{v0, v1} {
					m := newMachineWith(an, f, stuck)
					for gi := 0; gi < n; gi++ {
						for bi := 0; bi < n; bi++ {
							for p, x, y := 0, gi, bi; p < arity; p, x, y = p+1, x/3, y/3 {
								gin[p], bin[p] = vals[x%3], vals[y%3]
								m.state[ins[p]] = uint8(gin[p]) | uint8(bin[p])<<2
							}
							out := m.evalAt(int32(g))
							gotGood, gotBad := value(out&3), value(out>>2)
							wantGood := eval3(k, gin)
							var wantBad value
							switch {
							case f.Gate != g:
								wantBad = eval3(k, bin)
							case f.Pin < 0:
								wantBad = stuck
							default:
								forced := append([]value(nil), bin...)
								forced[f.Pin] = stuck
								wantBad = eval3(k, forced)
							}
							if gotGood != wantGood || gotBad != wantBad {
								t.Fatalf("%v good %v bad %v forcing %+v stuck %v: evalAt %v/%v, eval3 %v/%v",
									k, gin, bin, f, stuck, gotGood, gotBad, wantGood, wantBad)
							}
							if f.Gate == g {
								continue
							}
							for p := range ins {
								if d := decideTab[k][m.state[ins[p]]]; d != 0 {
									decisions++
									if d != out {
										t.Fatalf("%v good %v bad %v: input %d decides %v/%v, evalAt %v/%v",
											k, gin, bin, p, value(d&3), value(d>>2), gotGood, gotBad)
									}
								}
							}
						}
					}
					an.release(m)
				}
			}
		}
	}
	if decisions == 0 {
		t.Fatal("no input decided a gate")
	}
}
