package atpg

import (
	"fmt"
	"math/rand"
	"testing"

	"fastmon/internal/circuit"
	"fastmon/internal/fault"
)

// exhaustive is the brute-force reference of the SAT miters: a 2-valued
// simulation of both machines over every assignment of the sources, 64
// assignments per word. Source i holds bit i of the assignment index.
type exhaustive struct {
	c     *circuit.Circuit
	an    *analysis
	words int
	valid uint64 // the live bits of each word (all, unless 2^n < 64)
	good  [][]uint64
}

func newExhaustive(t *testing.T, c *circuit.Circuit) *exhaustive {
	t.Helper()
	an := newAnalysis(c)
	n := len(an.srcs)
	if n > 14 {
		t.Fatalf("%s has %d sources, too many to enumerate", c.Name, n)
	}
	e := &exhaustive{c: c, an: an, words: 1, valid: 1<<(1<<n) - 1}
	if n >= 6 {
		e.words, e.valid = 1<<(n-6), ^uint64(0)
	}
	e.good = make([][]uint64, e.words)
	for w := range e.good {
		e.good[w] = e.eval(w)
	}
	return e
}

// srcWord is the word of source i's values in assignments 64w … 64w+63.
func srcWord(i, w int) uint64 {
	if i < 6 {
		var x uint64
		for j := 0; j < 64; j++ {
			if j>>i&1 == 1 {
				x |= 1 << j
			}
		}
		return x
	}
	if (w<<6)>>i&1 == 1 {
		return ^uint64(0)
	}
	return 0
}

// gateWord evaluates gate id over the words of val, with fault f's pin
// or output forced to the word sw.
func (e *exhaustive) gateWord(val []uint64, id int, f fault.Fault, sw uint64) uint64 {
	g := &e.c.Gates[id]
	if id == f.Gate && f.Pin < 0 {
		return sw
	}
	var out uint64
	if g.Kind == circuit.And || g.Kind == circuit.Nand {
		out = ^uint64(0)
	}
	for p, fi := range g.Fanin {
		x := val[fi]
		if id == f.Gate && p == f.Pin {
			x = sw
		}
		switch g.Kind {
		case circuit.Buf, circuit.Not:
			out = x
		case circuit.And, circuit.Nand:
			out &= x
		case circuit.Or, circuit.Nor:
			out |= x
		default:
			out ^= x
		}
	}
	if g.Kind.Inverting() {
		out = ^out
	}
	return out
}

// eval simulates word w of the good machine.
func (e *exhaustive) eval(w int) []uint64 {
	val := make([]uint64, len(e.c.Gates))
	for i, id := range e.an.srcs {
		val[id] = srcWord(i, w)
	}
	for _, id := range e.c.Topo() {
		val[id] = e.gateWord(val, id, fault.Fault{Gate: -1}, 0)
	}
	return val
}

// detects returns, per word, the assignments that launch fault f (site at
// the opposite of stuck) and show a difference at an observation point.
// The faulty machine differs from the good one only in the fault gate's
// fanout cone, so only the cone is re-evaluated.
func (e *exhaustive) detects(f fault.Fault, stuck value) []uint64 {
	site := f.Gate
	if f.Pin >= 0 {
		site = e.c.Gates[f.Gate].Fanin[f.Pin]
	}
	inCone := make([]bool, len(e.c.Gates))
	inCone[f.Gate] = true
	var cone []int
	for _, id := range e.c.Topo() {
		if !inCone[id] {
			for _, fi := range e.c.Gates[id].Fanin {
				inCone[id] = inCone[id] || inCone[fi]
			}
		}
		if inCone[id] {
			cone = append(cone, id)
		}
	}
	sw := uint64(0)
	if stuck == v1 {
		sw = ^uint64(0)
	}
	out := make([]uint64, e.words)
	bad := make([]uint64, len(e.c.Gates))
	for w := range out {
		copy(bad, e.good[w])
		for _, id := range cone {
			bad[id] = e.gateWord(bad, id, f, sw)
		}
		act := e.good[w][site] ^ sw
		var diff uint64
		for _, tap := range e.an.taps {
			diff |= e.good[w][tap.Gate] ^ bad[tap.Gate]
		}
		out[w] = act & diff & e.valid
	}
	return out
}

// modelAt returns the word and bit at which the assignment of the
// prover's last satisfying model sits. Sources outside the miter read 0.
func modelAt(p *prover) (w, bit int) {
	idx := 0
	for i, id := range p.srcs {
		if p.g[id].inRegion == p.cur && p.sat.value(int(p.g[id].good>>1)) {
			idx |= 1 << i
		}
	}
	return idx >> 6, idx & 63
}

// exhaustiveCircuits are the circuits TestSATMatchesExhaustive enumerates:
// c17, s27 and generated ones with at most 14 sources.
func exhaustiveCircuits() []*circuit.Circuit {
	return []*circuit.Circuit{
		circuit.MustParseBench("c17", circuit.C17),
		circuit.MustParseBench("s27", circuit.S27),
		circuit.MustGenerate(circuit.GenSpec{
			Name: "x80", Gates: 80, FFs: 4, Inputs: 8, Outputs: 5, Depth: 8, Seed: 3}),
		circuit.MustGenerate(circuit.GenSpec{
			Name: "x140", Gates: 140, FFs: 6, Inputs: 8, Outputs: 6, Depth: 10, Seed: 11}),
		circuit.MustGenerate(circuit.GenSpec{
			Name: "x200", Gates: 200, FFs: 5, Inputs: 9, Outputs: 6, Depth: 12, Seed: 29}),
	}
}

// TestSATMatchesExhaustive checks both miters against brute force: for
// every fault of each circuit the launch miter is satisfiable exactly
// when some source assignment launches and detects the fault, and for
// every net and value the justification miter exactly when some
// assignment sets it. A satisfying model must itself be such an
// assignment. Floors keep both verdicts exercised.
func TestSATMatchesExhaustive(t *testing.T) {
	kinds := map[circuit.Kind]bool{}
	var sat, unsat int
	for _, c := range exhaustiveCircuits() {
		e := newExhaustive(t, c)
		p := &prover{analysis: e.an}
		check := func(what string, got satResult, want []uint64) {
			t.Helper()
			if got != satSat && got != satUnsat {
				t.Fatalf("%s %s: no verdict (%v)", c.Name, what, got)
			}
			exists := false
			for _, w := range want {
				exists = exists || w != 0
			}
			if exists != (got == satSat) {
				t.Fatalf("%s %s: SAT verdict %v, exhaustive says testable=%v", c.Name, what, got, exists)
			}
			if !exists {
				unsat++
				return
			}
			sat++
			if w, bit := modelAt(p); want[w]>>bit&1 == 0 {
				t.Fatalf("%s %s: the SAT model is no solution", c.Name, what)
			}
		}
		for _, f := range fault.Universe(c) {
			kinds[c.Gates[f.Gate].Kind] = true
			for _, stuck := range []value{v0, v1} {
				check(f.Name(c)+"/stuck"+stuck.String(), p.launch(f, stuck), e.detects(f, stuck))
			}
		}
		for id := range c.Gates {
			for _, target := range []value{v0, v1} {
				want := make([]uint64, e.words)
				for w := range want {
					want[w] = e.good[w][id] & e.valid
					if target == v0 {
						want[w] = ^e.good[w][id] & e.valid
					}
				}
				check(c.Gates[id].Name+"="+target.String(), p.justify(id, target), want)
			}
		}
	}
	t.Logf("%d satisfiable and %d unsatisfiable miters", sat, unsat)
	if sat == 0 || unsat == 0 {
		t.Fatal("want both verdicts")
	}
	for k := circuit.Buf; k <= circuit.Xnor; k++ {
		if !kinds[k] {
			t.Errorf("no fault on a %v gate", k)
		}
	}
}

// TestSATAgreesWithPODEM compares the miters with PODEM on the golden
// circuits. A PODEM test means a satisfiable miter and a PODEM proof an
// unsatisfiable one, for the launch vector and for the justification of
// the pre-transition value. A launch miter SAT proves unsatisfiable where
// PODEM aborts must also have no PODEM test at 20 times the backtrack
// limit (-short checks every fourth of those).
func TestSATAgreesWithPODEM(t *testing.T) {
	proofs := 0
	for _, gc := range goldenCases() {
		an := newAnalysis(gc.c)
		p := &prover{analysis: an}
		limit := gc.cfg.MaxBacktracks
		var tests, untestables, aborts int
		for _, f := range fault.Universe(gc.c) {
			stuck := v0
			if !f.Rising {
				stuck = v1
			}
			m := newMachineWith(an, f, stuck)
			res := m.run(limit)
			v := p.launch(f, stuck)
			if v == satOverBudget {
				t.Fatalf("%s %s: miter over budget", gc.name, f.Name(gc.c))
			}
			switch {
			case res == testFound && v != satSat:
				t.Fatalf("%s %s: PODEM found a test, SAT says %v", gc.name, f.Name(gc.c), v)
			case res == untestable && v != satUnsat:
				t.Fatalf("%s %s: PODEM proved it untestable, SAT says %v", gc.name, f.Name(gc.c), v)
			case res == aborted && v == satUnsat:
				aborts++
				if testing.Short() && aborts%4 != 1 {
					break
				}
				if m.run(20*limit) == testFound {
					t.Fatalf("%s %s: SAT proved it untestable, PODEM found a test", gc.name, f.Name(gc.c))
				}
				proofs++
			}
			if res == testFound {
				tests++
				site := m.siteNet()
				jm := newMachineWith(an, fault.Fault{Gate: site, Pin: -1}, stuck.not())
				jm.begin()
				jres := jm.justify(site, stuck, limit)
				jv := p.justify(site, stuck)
				if (jres == testFound && jv != satSat) || (jres == untestable && jv != satUnsat) {
					t.Fatalf("%s %s: justification PODEM %v, SAT %v", gc.name, f.Name(gc.c), jres, jv)
				}
				an.release(jm)
			} else if res == untestable {
				untestables++
			}
			an.release(m)
		}
		t.Logf("%s: PODEM %d tests, %d untestable; %d aborts proved untestable", gc.name, tests, untestables, aborts)
	}
	if proofs == 0 {
		t.Fatal("no abort was proved untestable")
	}
}

// bruteForceSAT reports whether the clauses over nv variables have a
// model.
func bruteForceSAT(nv int, clauses [][]int32) bool {
	for a := 0; a < 1<<nv; a++ {
		if satisfies(a, clauses) {
			return true
		}
	}
	return false
}

// satisfies reports whether assignment a (bit v is variable v) satisfies
// every clause.
func satisfies(a int, clauses [][]int32) bool {
	for _, cl := range clauses {
		ok := false
		for _, l := range cl {
			if (a>>(l>>1)&1 == 1) != (l&1 == 1) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// value reports variable v's value in the model of the last satSat
// verdict.
func (s *satSolver) value(v int) bool { return s.vals[2*v] == 1 }

// checkCDCL solves the clauses and compares the verdict, and the model,
// with brute force.
func checkCDCL(t *testing.T, s *satSolver, nv int, clauses [][]int32) {
	t.Helper()
	s.reset(nv)
	for _, cl := range clauses {
		s.addClause(append([]int32(nil), cl...))
	}
	got := s.solve(satMaxConflicts)
	want := bruteForceSAT(nv, clauses)
	if got == satUnknown || (got == satSat) != want {
		t.Fatalf("%d vars, clauses %v: solver %v, brute force satisfiable=%v", nv, clauses, got, want)
	}
	if got == satSat {
		a := 0
		for v := 0; v < nv; v++ {
			if s.value(v) {
				a |= 1 << v
			}
		}
		if !satisfies(a, clauses) {
			t.Fatalf("%d vars, clauses %v: model %b is no model", nv, clauses, a)
		}
	}
}

// decodeCNF reads a CNF over at most 12 variables from fuzz bytes: the
// variable count, then clauses of a length byte and that many literals.
func decodeCNF(data []byte) (int, [][]int32) {
	if len(data) == 0 {
		return 1, nil
	}
	nv := 1 + int(data[0])%12
	var clauses [][]int32
	for i := 1; i < len(data); {
		n := int(data[i]) % 5
		i++
		cl := []int32{}
		for ; n > 0 && i < len(data); n-- {
			cl = append(cl, int32(data[i])%int32(2*nv))
			i++
		}
		clauses = append(clauses, cl)
	}
	return nv, clauses
}

// FuzzCDCL checks the solver against brute force on random CNF over at
// most 12 variables.
func FuzzCDCL(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 16; i++ {
		b := make([]byte, 8+rng.Intn(120))
		rng.Read(b)
		f.Add(b)
	}
	var s satSolver
	f.Fuzz(func(t *testing.T, data []byte) {
		nv, clauses := decodeCNF(data)
		checkCDCL(t, &s, nv, clauses)
	})
}

// TestCDCLMatchesBruteForce runs random 3-CNF near the satisfiability
// threshold (about 4.3 clauses per variable), where both verdicts are
// common and the search needs conflicts, learning and restarts, through
// one reused solver.
func TestCDCLMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var s satSolver
	var sat, unsat int
	for i := 0; i < 3000; i++ {
		nv := 3 + rng.Intn(10)
		clauses := make([][]int32, int(4.3*float64(nv))+rng.Intn(5)-2)
		for j := range clauses {
			for k := 0; k < 3; k++ {
				clauses[j] = append(clauses[j], int32(rng.Intn(2*nv)))
			}
		}
		checkCDCL(t, &s, nv, clauses)
		if bruteForceSAT(nv, clauses) {
			sat++
		} else {
			unsat++
		}
	}
	if sat < 300 || unsat < 300 {
		t.Fatalf("%d satisfiable and %d unsatisfiable instances: the mix is too one-sided", sat, unsat)
	}
}

// TestLuby pins the restart sequence.
func TestLuby(t *testing.T) {
	want := []int{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, 1}
	for i, w := range want {
		if got := luby(i); got != w {
			t.Fatalf("luby(%d) = %d, want %d", i, got, w)
		}
	}
}

// TestMiterOverBudget checks that a miter larger than satMaxGates is not
// asked: a chain of buffers longer than the budget puts a fault at its
// tail over budget through the fanin walk, one at its head through the
// cone walk, and the tail's justification too.
func TestMiterOverBudget(t *testing.T) {
	c := circuit.New("chain")
	id := c.AddGate("a", circuit.Input)
	head := -1
	for i := 0; i <= satMaxGates; i++ {
		id = c.AddGate(fmt.Sprintf("b%d", i), circuit.Buf, id)
		if head < 0 {
			head = id
		}
	}
	c.MarkOutput(id)
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	p := &prover{analysis: newAnalysis(c)}
	for _, g := range []int{head, id} {
		if v := p.launch(fault.Fault{Gate: g, Pin: -1, Rising: true}, v0); v != satOverBudget {
			t.Errorf("launch miter at gate %d: %v, want over budget", g, v)
		}
	}
	if v := p.justify(id, v1); v != satOverBudget {
		t.Errorf("justification miter: %v, want over budget", v)
	}
	if v := p.justify(head, v1); v != satSat {
		t.Errorf("justification of the head: %v, want satisfiable", v)
	}
}

// pigeonhole returns the CNF of n+1 pigeons in n holes, which is
// unsatisfiable and takes resolution many steps: variable p*n+h puts
// pigeon p in hole h.
func pigeonhole(n int) (int, [][]int32) {
	var clauses [][]int32
	for p := 0; p <= n; p++ {
		var cl []int32
		for h := 0; h < n; h++ {
			cl = append(cl, int32(2*(p*n+h)))
		}
		clauses = append(clauses, cl)
	}
	for h := 0; h < n; h++ {
		for p := 0; p <= n; p++ {
			for q := p + 1; q <= n; q++ {
				clauses = append(clauses, []int32{int32(2*(p*n+h)) + 1, int32(2*(q*n+h)) + 1})
			}
		}
	}
	return (n + 1) * n, clauses
}

// TestCDCLConflictLimit checks that a query gives up at its conflict
// limit and that the next query on the same solver starts afresh, and
// that a clause store outgrowing its first size still solves.
func TestCDCLConflictLimit(t *testing.T) {
	var s satSolver
	nv, clauses := pigeonhole(7)
	s.reset(nv)
	for _, cl := range clauses {
		s.addClause(append([]int32(nil), cl...))
	}
	if got := s.solve(5); got != satUnknown {
		t.Fatalf("pigeonhole(7) under 5 conflicts: %v, want unknown", got)
	}
	nv, clauses = pigeonhole(3)
	checkCDCL(t, &s, nv, clauses)
	// Three variables and 200 clauses on a fresh solver: far more
	// literals than the store's first size of 20 per variable.
	clauses = clauses[:0]
	for i := 0; i < 200; i++ {
		clauses = append(clauses, []int32{0, 2, int32(4 + i%2)})
	}
	var fresh satSolver
	checkCDCL(t, &fresh, 3, clauses)
}
