package verilog

import (
	"strings"
	"testing"

	"fastmon/internal/circuit"
)

const hierSrc = `
// leaf: a half adder
module ha (x, y, s, co);
  input x, y;
  output s, co;
  XOR2_X1 u0 (.A1(x), .A2(y), .Z(s));
  AND2_X1 u1 (.A1(x), .A2(y), .Z(co));
endmodule

// full adder from two half adders (positional submodule instantiation)
module fa (a, b, cin, sum, cout);
  input a, b, cin;
  output sum, cout;
  wire s1, c1, c2;
  ha h0 (a, b, s1, c1);
  ha h1 (s1, cin, sum, c2);
  OR2_X1 u0 (.A1(c1), .A2(c2), .Z(cout));
endmodule

// top: 2-bit ripple adder with registered carry out
module top (a0, a1, b0, b1, cin, s0, s1, co_q);
  input a0, a1, b0, b1, cin;
  output s0, s1, co_q;
  wire c0;
  wire co;
  fa f0 (.A(a0), .B(b0), .CIN(cin), .SUM(s0), .COUT(c0));
  fa f1 (.A(a1), .B(b1), .CIN(c0), .SUM(s1), .COUT(co));
  DFF_X1 r0 (.D(co), .CK(clk), .Q(co_q));
endmodule
`

func TestParseHierarchyFlattens(t *testing.T) {
	c, err := ParseHierarchy("adder", strings.NewReader(hierSrc), "")
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "top" {
		t.Fatalf("top = %q", c.Name)
	}
	// Each fa: 2 ha (2 gates each) + 1 or = 5 gates; two fa = 10 gates,
	// plus the DFF.
	if c.NumGates() != 10 || c.NumFFs() != 1 {
		t.Fatalf("gates=%d FFs=%d", c.NumGates(), c.NumFFs())
	}
	if len(c.Inputs) != 5 || len(c.Outputs) != 3 {
		t.Fatalf("PIs=%d POs=%d", len(c.Inputs), len(c.Outputs))
	}
	// Hierarchical names carry the instance path (c1 is local to fa).
	if _, ok := c.GateID("f0/c1"); !ok {
		var names []string
		for _, g := range c.Gates {
			names = append(names, g.Name)
		}
		t.Fatalf("hierarchical net name missing; have %v", names)
	}
	// Functional spot check: 2-bit addition via the logic evaluator.
	// a=3 (a1=1,a0=1), b=1 (b0=1), cin=0 -> sum=00, carry=1.
	src := map[string]bool{"a0": true, "a1": true, "b0": true, "b1": false, "cin": false}
	val := make([]bool, len(c.Gates))
	for _, id := range c.Sources() {
		val[id] = src[c.Gates[id].Name]
	}
	ins := make([]bool, 0, 4)
	for _, id := range c.Topo() {
		g := &c.Gates[id]
		ins = ins[:0]
		for _, f := range g.Fanin {
			ins = append(ins, val[f])
		}
		val[id] = g.Kind.Eval(ins)
	}
	s0, _ := c.GateID("s0")
	s1, _ := c.GateID("s1")
	co, _ := c.GateID("co")
	if val[s0] != false || val[s1] != false || val[co] != true {
		t.Fatalf("3+1: s0=%v s1=%v co=%v, want 0,0,1", val[s0], val[s1], val[co])
	}
}

func TestParseHierarchyExplicitTop(t *testing.T) {
	c, err := ParseHierarchy("adder", strings.NewReader(hierSrc), "fa")
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "fa" || c.NumGates() != 5 {
		t.Fatalf("fa: %s, %d gates", c.Name, c.NumGates())
	}
	if _, err := ParseHierarchy("adder", strings.NewReader(hierSrc), "nope"); err == nil {
		t.Fatal("unknown top accepted")
	}
}

func TestParseHierarchyErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"two roots", "module a (x); input x; endmodule\nmodule b (y); input y; endmodule"},
		{"duplicate module", "module a (x); input x; endmodule\nmodule a (x); input x; endmodule"},
		{"port count", `module l (x, y); input x; output y; INV_X1 u (.A1(x), .ZN(y)); endmodule
module t (p, q); input p; output q; l u0 (p); endmodule`},
		{"unknown subport", `module l (x, y); input x; output y; INV_X1 u (.A1(x), .ZN(y)); endmodule
module t (p, q); input p; output q; l u0 (.X(p), .ZZ(q)); endmodule`},
		{"double driver", `module t (a, y); input a; output y;
INV_X1 u0 (.A1(a), .ZN(y));
INV_X1 u1 (.A1(a), .ZN(y));
endmodule`},
	}
	for _, tc := range cases {
		if _, err := ParseHierarchy("t", strings.NewReader(tc.src), ""); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestParseHierarchyRecursionGuard(t *testing.T) {
	src := `module a (x, y); input x; output y; a u0 (.X(x), .Y(y)); endmodule`
	if _, err := ParseHierarchy("t", strings.NewReader(src), "a"); err == nil ||
		!strings.Contains(err.Error(), "depth") {
		t.Fatalf("recursive hierarchy not caught: %v", err)
	}
}

func TestParseHierarchyUnconnectedSubPort(t *testing.T) {
	// Sub-module input left unconnected: elaboration creates a dangling
	// local net, which surfaces as "never driven".
	src := `module l (x, y); input x; output y; INV_X1 u (.A1(x), .ZN(y)); endmodule
module t (p, q); input p; output q; wire w;
l u0 (.Y(w));
BUF_X1 b (.A1(w), .Z(q));
BUF_X1 b2 (.A1(p), .Z(p2));
endmodule`
	_, err := ParseHierarchy("t", strings.NewReader(src), "t")
	if err == nil || !strings.Contains(err.Error(), "never driven") {
		t.Fatalf("dangling sub input not caught: %v", err)
	}
	_ = circuit.Input
}
