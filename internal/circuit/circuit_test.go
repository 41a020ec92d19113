package circuit

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func buildHalfAdder(t *testing.T) *Circuit {
	t.Helper()
	c := New("halfadder")
	a := c.AddGate("a", Input)
	b := c.AddGate("b", Input)
	sum := c.AddGate("sum", Xor, a, b)
	carry := c.AddGate("carry", And, a, b)
	c.MarkOutput(sum)
	c.MarkOutput(carry)
	if err := c.Finalize(); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	return c
}

func TestKindString(t *testing.T) {
	for k := Input; k < numKinds; k++ {
		if k.String() == "" || strings.HasPrefix(k.String(), "Kind(") {
			t.Errorf("kind %d has no name", k)
		}
		got, ok := KindFromString(k.String())
		if !ok || got != k {
			t.Errorf("KindFromString(%s) = %v,%v", k, got, ok)
		}
	}
	if _, ok := KindFromString("FOO"); ok {
		t.Error("unknown kind accepted")
	}
	if k, ok := KindFromString("BUFF"); !ok || k != Buf {
		t.Error("BUFF alias not accepted")
	}
	if k, ok := KindFromString("INV"); !ok || k != Not {
		t.Error("INV alias not accepted")
	}
}

func TestKindEval(t *testing.T) {
	cases := []struct {
		k    Kind
		in   []bool
		want bool
	}{
		{Buf, []bool{true}, true},
		{Not, []bool{true}, false},
		{And, []bool{true, true, true}, true},
		{And, []bool{true, false}, false},
		{Nand, []bool{true, true}, false},
		{Or, []bool{false, false}, false},
		{Or, []bool{false, true}, true},
		{Nor, []bool{false, false}, true},
		{Xor, []bool{true, true, true}, true},
		{Xor, []bool{true, true}, false},
		{Xnor, []bool{true, false}, false},
		{Xnor, []bool{true, true}, true},
	}
	for _, c := range cases {
		if got := c.k.Eval(c.in); got != c.want {
			t.Errorf("%v%v = %v, want %v", c.k, c.in, got, c.want)
		}
	}
}

// TestKindEvalCountMatchesEval checks the count form of every
// combinational kind against Eval on every input vector up to arity 6
// (Buf and Not only at their arity, 1).
func TestKindEvalCountMatchesEval(t *testing.T) {
	for k := Buf; k < DFF; k++ {
		maxN := 6
		if k == Buf || k == Not {
			maxN = 1
		}
		for n := 1; n <= maxN; n++ {
			in := make([]bool, n)
			for bits := 0; bits < 1<<n; bits++ {
				ones := 0
				for i := range in {
					in[i] = bits>>i&1 == 1
					if in[i] {
						ones++
					}
				}
				if got, want := k.EvalCount(n, ones), k.Eval(in); got != want {
					t.Errorf("%v.EvalCount(%d, %d) = %v, Eval%v = %v", k, n, ones, got, in, want)
				}
			}
		}
	}
	for _, k := range []Kind{Input, DFF} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%v.EvalCount did not panic", k)
				}
			}()
			k.EvalCount(1, 0)
		}()
	}
}

func TestKindInverting(t *testing.T) {
	inv := map[Kind]bool{Not: true, Nand: true, Nor: true, Xnor: true}
	for k := Buf; k < DFF; k++ {
		if k.Inverting() != inv[k] {
			t.Errorf("%v.Inverting() = %v", k, k.Inverting())
		}
	}
}

func TestBuildAndTopo(t *testing.T) {
	c := buildHalfAdder(t)
	if c.NumGates() != 2 {
		t.Fatalf("NumGates = %d, want 2", c.NumGates())
	}
	topo := c.Topo()
	if len(topo) != 2 {
		t.Fatalf("topo = %v", topo)
	}
	if c.Level(topo[0]) > c.Level(topo[1]) {
		t.Fatal("topo order violates levels")
	}
	if c.Depth() != 1 {
		t.Fatalf("Depth = %d, want 1", c.Depth())
	}
}

func TestFinalizeErrors(t *testing.T) {
	c := New("bad")
	a := c.AddGate("a", Input)
	c.AddGate("n", Not, a, a) // inverter with 2 pins
	if err := c.Finalize(); err == nil {
		t.Fatal("expected error for 2-input NOT")
	}

	c2 := New("cycle")
	x := c2.AddGate("x", Input)
	g1 := c2.AddGate("g1", And)
	g2 := c2.AddGate("g2", And, g1, x)
	c2.Gates[g1].Fanin = []int{g2, x}
	if err := c2.Finalize(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("expected cycle error, got %v", err)
	}
}

func TestDuplicateNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate name must panic")
		}
	}()
	c := New("dup")
	c.AddGate("a", Input)
	c.AddGate("a", Input)
}

func TestParseS27(t *testing.T) {
	c := MustParseBench("s27", S27)
	if got := c.NumGates(); got != 10 {
		t.Fatalf("s27 gates = %d, want 10", got)
	}
	if got := c.NumFFs(); got != 3 {
		t.Fatalf("s27 FFs = %d, want 3", got)
	}
	if len(c.Inputs) != 4 || len(c.Outputs) != 1 {
		t.Fatalf("s27 PIs/POs = %d/%d", len(c.Inputs), len(c.Outputs))
	}
	taps := c.Taps()
	if len(taps) != 4 { // 1 PO + 3 PPO
		t.Fatalf("s27 taps = %d, want 4", len(taps))
	}
	if taps[0].IsPseudo() || !taps[1].IsPseudo() {
		t.Fatal("tap ordering wrong: POs must come first")
	}
	if len(c.Sources()) != 7 { // 4 PI + 3 PPI
		t.Fatalf("s27 sources = %d, want 7", len(c.Sources()))
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"G1 = NAND(G0)",            // undefined G0
		"INPUT()",                  // empty
		"foo bar",                  // no assignment
		"INPUT(a)\na = NOT(a)",     // duplicate definition
		"INPUT(a)\nb = FROB(a)",    // unknown kind
		"OUTPUT(zz)",               // undefined output
		"INPUT(a)\nb = INPUT(a)",   // INPUT on RHS
		"INPUT(a)\nb = NOT(a,",     // malformed parens
		"INPUT(a)\nb = NOT(a, , )", // empty fanin
	}
	for _, src := range cases {
		if _, err := ParseBench("t", strings.NewReader(src)); err == nil {
			t.Errorf("ParseBench accepted %q", src)
		}
	}
}

func TestBenchRoundTrip(t *testing.T) {
	orig := MustParseBench("s27", S27)
	var buf bytes.Buffer
	if err := WriteBench(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ParseBench("s27", &buf)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if back.NumGates() != orig.NumGates() || back.NumFFs() != orig.NumFFs() ||
		len(back.Inputs) != len(orig.Inputs) || len(back.Outputs) != len(orig.Outputs) {
		t.Fatal("round trip changed circuit statistics")
	}
	// Structural check: same named gates with same named fanins.
	for _, g := range orig.Gates {
		id, ok := back.GateID(g.Name)
		if !ok {
			t.Fatalf("gate %s lost in round trip", g.Name)
		}
		bg := back.Gates[id]
		if bg.Kind != g.Kind || len(bg.Fanin) != len(g.Fanin) {
			t.Fatalf("gate %s changed in round trip", g.Name)
		}
		for i := range g.Fanin {
			if back.Gates[bg.Fanin[i]].Name != orig.Gates[g.Fanin[i]].Name {
				t.Fatalf("gate %s fanin %d changed", g.Name, i)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec := GenSpec{Name: "gen", Gates: 200, FFs: 20, Inputs: 10, Outputs: 8, Depth: 12, Seed: 7}
	a := MustGenerate(spec)
	b := MustGenerate(spec)
	var bufA, bufB bytes.Buffer
	if err := WriteBench(&bufA, a); err != nil {
		t.Fatal(err)
	}
	if err := WriteBench(&bufB, b); err != nil {
		t.Fatal(err)
	}
	if bufA.String() != bufB.String() {
		t.Fatal("Generate is not deterministic")
	}
}

func TestGenerateStats(t *testing.T) {
	spec := GenSpec{Name: "gen", Gates: 500, FFs: 40, Inputs: 16, Outputs: 10, Depth: 20, Seed: 3}
	c := MustGenerate(spec)
	if c.NumGates() != 500 {
		t.Fatalf("gates = %d, want 500", c.NumGates())
	}
	if c.NumFFs() != 40 {
		t.Fatalf("FFs = %d, want 40", c.NumFFs())
	}
	if len(c.Inputs) != 16 {
		t.Fatalf("PIs = %d, want 16", len(c.Inputs))
	}
	if len(c.Outputs) < 10 {
		t.Fatalf("POs = %d, want >= 10", len(c.Outputs))
	}
	if c.Depth() > 20 {
		t.Fatalf("depth = %d, want <= 20", c.Depth())
	}
	// Every combinational gate must be observable (have fanout or be a
	// sink): the generator promises no dangling logic.
	taps := c.Taps()
	isTapGate := map[int]bool{}
	for _, tp := range taps {
		isTapGate[tp.Gate] = true
	}
	for id, g := range c.Gates {
		if g.Kind == Input || g.Kind == DFF {
			continue
		}
		if len(g.Fanout) == 0 && !isTapGate[id] {
			t.Fatalf("gate %s dangling", g.Name)
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	bad := []GenSpec{
		{Name: "g", Gates: 0, Inputs: 1, Depth: 1},
		{Name: "g", Gates: 5, Inputs: 0, FFs: 0, Depth: 3},
		{Name: "g", Gates: 5, Inputs: 2, Depth: 0},
	}
	for _, spec := range bad {
		if _, err := Generate(spec); err == nil {
			t.Errorf("Generate accepted invalid spec %+v", spec)
		}
	}
}

func TestGenerateRoundTrip(t *testing.T) {
	c := MustGenerate(GenSpec{Name: "gen", Gates: 120, FFs: 12, Inputs: 8, Outputs: 6, Depth: 10, Seed: 11})
	var buf bytes.Buffer
	if err := WriteBench(&buf, c); err != nil {
		t.Fatal(err)
	}
	back, err := ParseBench("gen", &buf)
	if err != nil {
		t.Fatalf("generated circuit does not reparse: %v", err)
	}
	if back.NumGates() != c.NumGates() || back.NumFFs() != c.NumFFs() {
		t.Fatal("generated circuit stats changed through bench round trip")
	}
}

func TestPropGeneratedCircuitsValid(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	f := func() bool {
		spec := GenSpec{
			Name:    "prop",
			Gates:   20 + r.Intn(300),
			FFs:     r.Intn(30),
			Inputs:  1 + r.Intn(20),
			Outputs: r.Intn(10),
			Depth:   1 + r.Intn(25),
			Seed:    r.Int63(),
		}
		c, err := Generate(spec)
		if err != nil {
			return false
		}
		if c.NumGates() != spec.Gates || c.NumFFs() != spec.FFs {
			return false
		}
		// Topo order sanity: every fanin of a combinational gate appears
		// earlier (or is a source).
		pos := map[int]int{}
		for i, id := range c.Topo() {
			pos[id] = i
		}
		for _, id := range c.Topo() {
			for _, f := range c.Gates[id].Fanin {
				fg := c.Gates[f]
				if fg.Kind == Input || fg.Kind == DFF {
					continue
				}
				if pos[f] >= pos[id] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsString(t *testing.T) {
	c := buildHalfAdder(t)
	s := c.Stats()
	if s.Gates != 2 || s.Inputs != 2 || s.Outputs != 2 || s.FFs != 0 {
		t.Fatalf("Stats = %+v", s)
	}
	if s.String() == "" {
		t.Fatal("empty Stats string")
	}
}

func TestParseC17(t *testing.T) {
	c := MustParseBench("c17", C17)
	if c.NumGates() != 6 || c.NumFFs() != 0 {
		t.Fatalf("c17: %d gates, %d FFs", c.NumGates(), c.NumFFs())
	}
	if len(c.Inputs) != 5 || len(c.Outputs) != 2 {
		t.Fatalf("c17 ports: %d/%d", len(c.Inputs), len(c.Outputs))
	}
	// Truth spot check: all inputs 1 -> 10=NAND(1,1)=0, 11=0, 16=NAND(1,0)=1,
	// 19=1, 22=NAND(0,1)=1, 23=NAND(1,1)=0.
	val := make([]bool, len(c.Gates))
	for _, id := range c.Inputs {
		val[id] = true
	}
	ins := make([]bool, 0, 2)
	for _, id := range c.Topo() {
		g := &c.Gates[id]
		ins = ins[:0]
		for _, f := range g.Fanin {
			ins = append(ins, val[f])
		}
		val[id] = g.Kind.Eval(ins)
	}
	g22, _ := c.GateID("22")
	g23, _ := c.GateID("23")
	if val[g22] != true || val[g23] != false {
		t.Fatalf("c17 all-ones: 22=%v 23=%v", val[g22], val[g23])
	}
}

// TestReachesTap checks the tap-reachability precompute the event-driven
// fault simulator uses to skip structurally undetectable faults: a gate
// reaches a tap exactly when some primary output or DFF data input lies in
// its combinational fanout cone.
func TestReachesTap(t *testing.T) {
	c := New("reach")
	a := c.AddGate("a", Input)
	b := c.AddGate("b", Input)
	n1 := c.AddGate("n1", Nand, a, b)
	po := c.AddGate("po", Not, n1)
	c.MarkOutput(po)
	d := c.AddGate("d", And, a, n1)
	ff := c.AddGate("ff", DFF, d)
	// q feeds only dead logic: observable through nothing.
	dead := c.AddGate("dead", Not, ff)
	dead2 := c.AddGate("dead2", And, dead, b)
	_ = dead2
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	wantReach := map[int]bool{
		a: true, b: true, n1: true, po: true, d: true,
		// The DFF output itself feeds only the dead chain; its D input (d)
		// is the tap, so the FF gate is not required to reach one.
		ff: false, dead: false, dead2: false,
	}
	for id, want := range wantReach {
		if got := c.ReachesTap(id); got != want {
			t.Errorf("ReachesTap(%s) = %v, want %v", c.Gates[id].Name, got, want)
		}
	}
	reachesTapByWalk(t, c)
	reachesTapByWalk(t, MustGenerate(GenSpec{Name: "reach", Gates: 300, FFs: 24, Inputs: 10, Outputs: 8, Depth: 12, Seed: 5}))
}

// reachesTapByWalk cross-checks ReachesTap for every gate against a
// forward walk over the combinational fanouts from the gate's output.
func reachesTapByWalk(t *testing.T, c *Circuit) {
	t.Helper()
	isTap := make([]bool, len(c.Gates))
	for _, tap := range c.Taps() {
		isTap[tap.Gate] = true
	}
	for id := range c.Gates {
		seen := map[int]bool{id: true}
		stack := []int{id}
		want := false
		for len(stack) > 0 {
			g := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			want = want || isTap[g]
			for _, fo := range c.CombFanout(g) {
				if !seen[int(fo)] {
					seen[int(fo)] = true
					stack = append(stack, int(fo))
				}
			}
		}
		if got := c.ReachesTap(id); got != want {
			t.Errorf("%s: ReachesTap(%s) = %v, but the fanout walk says %v", c.Name, c.Gates[id].Name, got, want)
		}
	}
}
