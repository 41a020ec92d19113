package atpg

import (
	"context"
	"testing"

	"fastmon/internal/circuit"
	"fastmon/internal/fault"
)

func fromBool(b bool) value {
	if b {
		return v1
	}
	return v0
}

// eval3 evaluates a gate kind over 3-valued inputs, one input at a time.
// It is the reference the fused evaluator of evalAt is tested against.
func eval3(kind circuit.Kind, in []value) value {
	switch kind {
	case circuit.Buf:
		return in[0]
	case circuit.Not:
		return in[0].not()
	case circuit.And, circuit.Nand:
		out := v1
		for _, v := range in {
			if v == v0 {
				out = v0
				break
			}
			if v == vX {
				out = vX
			}
		}
		if kind == circuit.Nand {
			return out.not()
		}
		return out
	case circuit.Or, circuit.Nor:
		out := v0
		for _, v := range in {
			if v == v1 {
				out = v1
				break
			}
			if v == vX {
				out = vX
			}
		}
		if kind == circuit.Nor {
			return out.not()
		}
		return out
	case circuit.Xor, circuit.Xnor:
		out := v0
		for _, v := range in {
			if v == vX {
				return vX
			}
			if v == v1 {
				out = out.not()
			}
		}
		if kind == circuit.Xnor {
			return out.not()
		}
		return out
	}
	panic("atpg: eval3 on " + kind.String())
}

// newMachine acquires a machine over a fresh analysis of c.
func newMachine(c *circuit.Circuit, f fault.Fault, stuck value) *machine {
	return newMachineWith(newAnalysis(c), f, stuck)
}

// run is one PODEM search for the launch vector at the given limit,
// without the SAT prover.
func (m *machine) run(limit int) podemResult {
	m.start()
	return m.search(limit)
}

// justify searches for a source assignment that sets net to target on a
// fresh analysis and returns a copy of it.
func justify(c *circuit.Circuit, net int, target value, maxBacktracks int) ([]value, podemResult) {
	an := newAnalysis(c)
	m := newMachineWith(an, fault.Fault{Gate: net, Pin: -1}, target.not())
	m.begin()
	res := m.justify(net, target, maxBacktracks)
	var assign []value
	if res == testFound {
		assign = append([]value(nil), m.assign...)
	}
	an.release(m)
	return assign, res
}

func TestEval3(t *testing.T) {
	cases := []struct {
		k    circuit.Kind
		in   []value
		want value
	}{
		{circuit.And, []value{v1, v1}, v1},
		{circuit.And, []value{v0, vX}, v0},
		{circuit.And, []value{v1, vX}, vX},
		{circuit.Nand, []value{v0, vX}, v1},
		{circuit.Or, []value{v1, vX}, v1},
		{circuit.Or, []value{v0, vX}, vX},
		{circuit.Nor, []value{v1, vX}, v0},
		{circuit.Xor, []value{v1, v1}, v0},
		{circuit.Xor, []value{v1, vX}, vX},
		{circuit.Xnor, []value{v1, v0}, v0},
		{circuit.Not, []value{vX}, vX},
		{circuit.Not, []value{v0}, v1},
		{circuit.Buf, []value{v1}, v1},
	}
	for _, c := range cases {
		if got := eval3(c.k, c.in); got != c.want {
			t.Errorf("eval3(%v, %v) = %v, want %v", c.k, c.in, got, c.want)
		}
	}
}

func TestValueHelpers(t *testing.T) {
	if v0.not() != v1 || v1.not() != v0 || vX.not() != vX {
		t.Fatal("not() wrong")
	}
	if fromBool(true) != v1 || fromBool(false) != v0 {
		t.Fatal("fromBool wrong")
	}
	if v0.String() != "0" || v1.String() != "1" || vX.String() != "X" {
		t.Fatal("String wrong")
	}
}

func TestControlling(t *testing.T) {
	if c, ok := controlling(circuit.And); !ok || c != v0 {
		t.Fatal("AND controlling wrong")
	}
	if c, ok := controlling(circuit.Nor); !ok || c != v1 {
		t.Fatal("NOR controlling wrong")
	}
	if _, ok := controlling(circuit.Xor); ok {
		t.Fatal("XOR must have no controlling value")
	}
}

func TestPodemSimpleAnd(t *testing.T) {
	// g = AND(a, b) observed at a PO: slow-to-rise at g output needs
	// a=b=1 in V2 and g=0 in V1.
	c := circuit.New("andg")
	a := c.AddGate("a", circuit.Input)
	b := c.AddGate("b", circuit.Input)
	g := c.AddGate("g", circuit.And, a, b)
	c.MarkOutput(g)
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	f := fault.Fault{Gate: g, Pin: -1, Rising: true}
	m := newMachine(c, f, v0)
	if res := m.run(100); res != testFound {
		t.Fatalf("PODEM result = %v", res)
	}
	m.imply()
	if m.good(g) != v1 {
		t.Fatalf("site not activated: %v", m.good(g))
	}
	if !m.detected() {
		t.Fatal("fault effect not at output")
	}
}

func TestPodemUntestable(t *testing.T) {
	// g = AND(a, NOT(a)): constant 0; slow-to-rise at g output cannot be
	// activated (site never becomes 1).
	c := circuit.New("const0")
	a := c.AddGate("a", circuit.Input)
	n := c.AddGate("n", circuit.Not, a)
	g := c.AddGate("g", circuit.And, a, n)
	c.MarkOutput(g)
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	f := fault.Fault{Gate: g, Pin: -1, Rising: true}
	m := newMachine(c, f, v0)
	if res := m.run(1000); res != untestable {
		t.Fatalf("PODEM result = %v, want untestable", res)
	}
}

func TestPodemPinFault(t *testing.T) {
	// g = OR(a, b): slow-to-fall on pin 0 requires a: 1→0 with b=0.
	c := circuit.New("org")
	a := c.AddGate("a", circuit.Input)
	b := c.AddGate("b", circuit.Input)
	g := c.AddGate("g", circuit.Or, a, b)
	c.MarkOutput(g)
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	f := fault.Fault{Gate: g, Pin: 0, Rising: false}
	m := newMachine(c, f, v1)
	if res := m.run(100); res != testFound {
		t.Fatalf("PODEM result = %v", res)
	}
	// b must be 0 (non-masking) and a must be 0 in V2.
	m.imply()
	if m.good(a) != v0 || m.good(b) != v0 {
		t.Fatalf("assignment a=%v b=%v", m.good(a), m.good(b))
	}
}

func TestJustify(t *testing.T) {
	c := circuit.New("j")
	a := c.AddGate("a", circuit.Input)
	b := c.AddGate("b", circuit.Input)
	g := c.AddGate("g", circuit.Nand, a, b)
	c.MarkOutput(g)
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	assign, res := justify(c, g, v0, 100)
	if res != testFound {
		t.Fatalf("justify = %v", res)
	}
	// NAND = 0 requires both inputs 1.
	if assign[0] != v1 || assign[1] != v1 {
		t.Fatalf("assign = %v", assign)
	}
	// Justifying a constant is impossible.
	c2 := circuit.New("j2")
	a2 := c2.AddGate("a", circuit.Input)
	n2 := c2.AddGate("n", circuit.Not, a2)
	g2 := c2.AddGate("g", circuit.And, a2, n2)
	c2.MarkOutput(g2)
	if err := c2.Finalize(); err != nil {
		t.Fatal(err)
	}
	if _, res := justify(c2, g2, v1, 1000); res != untestable {
		t.Fatalf("justify constant = %v", res)
	}
}

func TestGenerateS27FullCoverage(t *testing.T) {
	c := circuit.MustParseBench("s27", circuit.S27)
	faults := fault.Universe(c)
	pats, st, err := Generate(context.Background(), c, faults, DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if st.Faults != len(faults) {
		t.Fatalf("stats faults = %d", st.Faults)
	}
	if st.Detected+st.Untestable+st.Aborted < st.Faults {
		t.Fatalf("faults unaccounted: %+v", st)
	}
	if st.Aborted != 0 {
		t.Fatalf("aborts on s27: %+v", st)
	}
	if cov := st.Coverage(); cov < 0.999 {
		t.Fatalf("coverage = %f, want ~1.0", cov)
	}
	// Every claimed detection must be verifiable by independent fault
	// simulation of the final pattern set.
	det := Verify(c, pats, faults)
	n := 0
	for _, d := range det {
		if d {
			n++
		}
	}
	if n != st.Detected {
		t.Fatalf("verification found %d detected, stats say %d", n, st.Detected)
	}
	if len(pats) == 0 || len(pats) > 64 {
		t.Fatalf("unreasonable pattern count %d", len(pats))
	}
}

func TestGenerateDeterministic(t *testing.T) {
	c := circuit.MustParseBench("s27", circuit.S27)
	faults := fault.Universe(c)
	p1, s1, err := Generate(context.Background(), c, faults, DefaultConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	p2, s2, err2 := Generate(context.Background(), c, faults, DefaultConfig(7))
	if err2 != nil {
		t.Fatal(err2)
	}
	if s1 != s2 || len(p1) != len(p2) {
		t.Fatalf("non-deterministic: %+v vs %+v", s1, s2)
	}
	for i := range p1 {
		for j := range p1[i].V1 {
			if p1[i].V1[j] != p2[i].V1[j] || p1[i].V2[j] != p2[i].V2[j] {
				t.Fatal("pattern content differs between runs")
			}
		}
	}
}

func TestGenerateCompactionPreservesCoverage(t *testing.T) {
	c := circuit.MustGenerate(circuit.GenSpec{Name: "g", Gates: 150, FFs: 16, Inputs: 8, Outputs: 6, Depth: 10, Seed: 13})
	faults := fault.Universe(c)
	cfgNo := DefaultConfig(3)
	cfgNo.Compact = false
	pRaw, stRaw, err := Generate(context.Background(), c, faults, cfgNo)
	if err != nil {
		t.Fatal(err)
	}
	cfgYes := DefaultConfig(3)
	pCmp, stCmp, err := Generate(context.Background(), c, faults, cfgYes)
	if err != nil {
		t.Fatal(err)
	}
	if stCmp.Detected != stRaw.Detected {
		t.Fatalf("compaction changed coverage: %d vs %d", stCmp.Detected, stRaw.Detected)
	}
	if len(pCmp) > len(pRaw) {
		t.Fatalf("compaction grew the set: %d vs %d", len(pCmp), len(pRaw))
	}
	// Verify compacted set really detects the same count.
	det := Verify(c, pCmp, faults)
	n := 0
	for _, d := range det {
		if d {
			n++
		}
	}
	if n < stCmp.Detected {
		t.Fatalf("compacted set detects %d, stats claim %d", n, stCmp.Detected)
	}
}

func TestGenerateGeneratedCircuitCoverage(t *testing.T) {
	c := circuit.MustGenerate(circuit.GenSpec{Name: "g", Gates: 300, FFs: 24, Inputs: 10, Outputs: 8, Depth: 12, Seed: 17})
	faults := fault.Universe(c)
	_, st, err := Generate(context.Background(), c, faults, DefaultConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	// Random synthetic logic carries far more redundant (untestable but
	// unproven) transition faults than synthesized industrial netlists;
	// an experiment showed <10% of aborted faults are detectable even by
	// 32k extra random patterns. 0.90 of the testable set is therefore a
	// sound floor here; on s27 the generator reaches 100%.
	if cov := st.Coverage(); cov < 0.90 {
		t.Fatalf("coverage = %f too low (stats %+v)", cov, st)
	}
}

func TestStatsCoverageEdge(t *testing.T) {
	if (Stats{Faults: 0}).Coverage() != 1 {
		t.Fatal("empty fault list coverage must be 1")
	}
	if (Stats{Faults: 4, Untestable: 4}).Coverage() != 1 {
		t.Fatal("all-untestable coverage must be 1")
	}
	s := Stats{Faults: 10, Untestable: 2, Detected: 8}
	if s.Coverage() != 1.0 {
		t.Fatalf("coverage = %f", s.Coverage())
	}
}
