package atpg

import (
	"fmt"
	"math/rand"
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

// TestImplySrcMatchesImply drives random decide / flip / unassign
// sequences through the incremental implySrc and checks, after every step,
// that both machines equal a from-scratch imply(), for output faults, pin
// faults and the source-site fault the justification machine uses.
func TestImplySrcMatchesImply(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	steps := 0
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
		faults = append(faults, fault.Fault{Gate: an.srcs[rng.Intn(len(an.srcs))], Pin: -1})
		for _, f := range faults {
			stuck := v0
			if rng.Intn(2) == 1 {
				stuck = v1
			}
			m := newMachineWith(an, f, stuck)
			ref := newMachineWith(an, f, stuck)
			m.imply()
			for step := 0; step < 150; step++ {
				src := rng.Intn(len(m.srcs))
				switch cur := m.assign[src]; {
				case cur == vX: // decide
					m.assign[src] = fromBool(rng.Intn(2) == 1)
				case rng.Intn(2) == 0: // flip
					m.assign[src] = cur.not()
				default: // unassign
					m.assign[src] = vX
				}
				m.implySrc(src)
				steps++

				copy(ref.assign, m.assign)
				ref.imply()
				for id := range c.Gates {
					if m.good[id] != ref.good[id] || m.bad[id] != ref.bad[id] {
						t.Fatalf("%s fault %+v step %d: gate %s incremental good/bad %v/%v, imply() %v/%v",
							c.Name, f, step, c.Gates[id].Name, m.good[id], m.bad[id], ref.good[id], ref.bad[id])
					}
				}
			}
			an.release(m)
			an.release(ref)
		}
	}
	if steps == 0 {
		t.Fatal("no implication steps ran")
	}
}

// TestEvalAtMatchesEval3 checks the fused evaluator exhaustively: for every
// combinational kind at arity 1-4, every pair of 3-valued good/bad input
// vectors, and every forcing — none, each input pin, or the output — to
// either stuck value, evalAt must equal eval3 on the good inputs and on
// the bad inputs with the forcing applied.
func TestEvalAtMatchesEval3(t *testing.T) {
	vals := []value{vX, v0, v1}
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
								m.good[ins[p]], m.bad[ins[p]] = gin[p], bin[p]
							}
							m.evalAt(g)
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
							if m.good[g] != wantGood || m.bad[g] != wantBad {
								t.Fatalf("%v good %v bad %v forcing %+v stuck %v: evalAt %v/%v, eval3 %v/%v",
									k, gin, bin, f, stuck, m.good[g], m.bad[g], wantGood, wantBad)
							}
						}
					}
					an.release(m)
				}
			}
		}
	}
}
