package verilog

import (
	"bytes"
	"strings"
	"testing"

	"fastmon/internal/circuit"
)

const sampleNamed = `
// half adder plus a registered carry
module ha (a, b, sum, carry_q);
  input a, b;
  output sum, carry_q;
  wire carry;
  XOR2_X1 u0 (.A1(a), .A2(b), .Z(sum));
  AND2_X1 u1 (.A1(a), .A2(b), .Z(carry));
  DFF_X1  u2 (.D(carry), .CK(clk), .Q(carry_q));
endmodule
`

const samplePrimitive = `
module prim (a, b, y);
  input a, b; output y;
  wire n1;
  nand g0 (n1, a, b);
  not  g1 (y, n1);
endmodule
`

func TestParseNamedStyle(t *testing.T) {
	c, err := Parse("ha", strings.NewReader(sampleNamed))
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "ha" {
		t.Fatalf("module name = %q", c.Name)
	}
	if c.NumGates() != 2 || c.NumFFs() != 1 {
		t.Fatalf("gates=%d FFs=%d", c.NumGates(), c.NumFFs())
	}
	sum, ok := c.GateID("sum")
	if !ok || c.Gates[sum].Kind != circuit.Xor {
		t.Fatal("sum gate wrong")
	}
	if len(c.Gates[sum].Fanin) != 2 {
		t.Fatalf("sum fanin = %d", len(c.Gates[sum].Fanin))
	}
	cq, _ := c.GateID("carry_q")
	if c.Gates[cq].Kind != circuit.DFF || len(c.Gates[cq].Fanin) != 1 {
		t.Fatal("DFF wiring wrong")
	}
	if len(c.Outputs) != 2 || len(c.Inputs) != 2 {
		t.Fatalf("ports: %d in, %d out", len(c.Inputs), len(c.Outputs))
	}
}

func TestParsePrimitiveStyle(t *testing.T) {
	c, err := Parse("prim", strings.NewReader(samplePrimitive))
	if err != nil {
		t.Fatal(err)
	}
	y, _ := c.GateID("y")
	if c.Gates[y].Kind != circuit.Not {
		t.Fatal("not gate wrong")
	}
	n1, _ := c.GateID("n1")
	if c.Gates[n1].Kind != circuit.Nand || len(c.Gates[n1].Fanin) != 2 {
		t.Fatal("nand gate wrong")
	}
}

func TestParseBlockComments(t *testing.T) {
	src := "/* header\nspanning lines */ module m (a, y); input a; output y;\nbuf g0 (y, a);\nendmodule"
	c, err := Parse("m", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if c.NumGates() != 1 {
		t.Fatal("buffer lost")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"no module", "foo bar"},
		{"missing endmodule", "module m (a); input a;"},
		{"unknown cell", "module m (a,y); input a; output y; FROB_X1 u0 (.A(a), .Z(y)); endmodule"},
		{"undriven net", "module m (a,y); input a; output y; INV_X1 u0 (.A(zz), .ZN(y)); endmodule"},
		{"undriven output", "module m (a,y); input a; output y; endmodule"},
		{"no output port", "module m (a,y); input a; output y; INV_X1 u0 (.A(a)); endmodule"},
		{"dff no d", "module m (a,y); input a; output y; DFF_X1 u0 (.CK(clk), .Q(y)); endmodule"},
		{"one port", "module m (a,y); input a; output y; nand u0 (y); endmodule"},
		{"unterminated comment", "module m (a); /* oops"},
		{"bad decl", "module m (a); input ; endmodule"},
	}
	for _, tc := range cases {
		if _, err := Parse("t", strings.NewReader(tc.src)); err == nil {
			t.Errorf("%s: accepted %q", tc.name, tc.src)
		}
	}
}

func TestWriteParseRoundTripS27(t *testing.T) {
	orig := circuit.MustParseBench("s27", circuit.S27)
	var buf bytes.Buffer
	if err := Write(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := Parse("s27", &buf)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, buf.String())
	}
	if back.NumGates() != orig.NumGates() || back.NumFFs() != orig.NumFFs() ||
		len(back.Inputs) != len(orig.Inputs) || len(back.Outputs) != len(orig.Outputs) {
		t.Fatal("round trip changed circuit statistics")
	}
	for _, g := range orig.Gates {
		id, ok := back.GateID(g.Name)
		if !ok {
			t.Fatalf("gate %s lost", g.Name)
		}
		bg := back.Gates[id]
		if bg.Kind != g.Kind || len(bg.Fanin) != len(g.Fanin) {
			t.Fatalf("gate %s changed: %v/%d vs %v/%d", g.Name, bg.Kind, len(bg.Fanin), g.Kind, len(g.Fanin))
		}
		for i := range g.Fanin {
			if back.Gates[bg.Fanin[i]].Name != orig.Gates[g.Fanin[i]].Name {
				t.Fatalf("gate %s fanin %d changed", g.Name, i)
			}
		}
	}
}

func TestWriteParseRoundTripGenerated(t *testing.T) {
	orig := circuit.MustGenerate(circuit.GenSpec{Name: "gen-1", Gates: 300, FFs: 24, Inputs: 10, Outputs: 8, Depth: 12, Seed: 3})
	var buf bytes.Buffer
	if err := Write(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := Parse("gen", &buf)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if back.NumGates() != orig.NumGates() || back.NumFFs() != orig.NumFFs() {
		t.Fatal("round trip changed circuit statistics")
	}
	// Module name sanitized (dash not legal in simple identifiers).
	if strings.Contains(back.Name, "-") {
		t.Fatal("unsanitized module name")
	}
}

func TestCellKind(t *testing.T) {
	cases := []struct {
		cell string
		kind circuit.Kind
		ok   bool
	}{
		{"NAND2_X1", circuit.Nand, true},
		{"NAND4_X2", circuit.Nand, true},
		{"INV_X1", circuit.Not, true},
		{"not", circuit.Not, true},
		{"DFF_X1", circuit.DFF, true},
		{"SDFF_X1", circuit.DFF, true},
		{"CLKBUF_X3", circuit.Buf, true},
		{"XNOR2_X1", circuit.Xnor, true},
		{"MYSTERY_X1", 0, false},
	}
	for _, tc := range cases {
		k, ok := cellKind(tc.cell)
		if ok != tc.ok || (ok && k != tc.kind) {
			t.Errorf("cellKind(%q) = %v,%v", tc.cell, k, ok)
		}
	}
}

func TestSanitize(t *testing.T) {
	if got := sanitize("9abc-def"); got != "m9abc_def" {
		t.Fatalf("sanitize = %q", got)
	}
	if got := sanitize(""); got != "m" {
		t.Fatalf("sanitize empty = %q", got)
	}
}

// BenchmarkVerilogParse measures the structural-Verilog front end on a
// generated netlist.
func BenchmarkVerilogParse(b *testing.B) {
	c := circuit.MustGenerate(circuit.GenSpec{Name: "vp", Gates: 1000, FFs: 80, Inputs: 16, Outputs: 12, Depth: 20, Seed: 3})
	var buf bytes.Buffer
	if err := Write(&buf, c); err != nil {
		b.Fatal(err)
	}
	src := buf.String()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Parse("vp", strings.NewReader(src)); err != nil {
			b.Fatal(err)
		}
	}
}
