// Interop: exercises the EDA file-format surface around the flow — a
// structural Verilog netlist is parsed, timing is annotated and exchanged
// as SDF, ATPG patterns are archived and reloaded through the pattern
// format, and the netlist round-trips to .bench. This is the glue a real
// test floor needs around the paper's algorithmic core.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"strings"

	"fastmon"
)

const netlist = `
// a tiny pipelined datapath block (structural, NanGate-style)
module dp (a, b, c, en, q0, q1);
  input a, b, c, en;
  output q0, q1;
  wire n1, n2, n3, n4, n5, r0, r1;
  NAND2_X1 u0 (.A1(a), .A2(b), .ZN(n1));
  NOR2_X1  u1 (.A1(b), .A2(c), .ZN(n2));
  XOR2_X1  u2 (.A1(n1), .A2(n2), .Z(n3));
  AND2_X1  u3 (.A1(n3), .A2(en), .Z(n4));
  INV_X1   u4 (.A1(n4), .ZN(n5));
  DFF_X1   f0 (.D(n4), .CK(clk), .Q(r0));
  DFF_X1   f1 (.D(n5), .CK(clk), .Q(r1));
  AND2_X1  u5 (.A1(r0), .A2(n3), .Z(q0));
  OR2_X1   u6 (.A1(r1), .A2(n2), .Z(q1));
endmodule
`

func main() {
	ctx := context.Background()
	lib := fastmon.NanGate45()

	// Verilog in.
	c, err := fastmon.ParseVerilog("dp", strings.NewReader(netlist))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("parsed:", c.Stats())

	// Timing out and back through SDF.
	annot := fastmon.Annotate(c, lib)
	var sdfBuf bytes.Buffer
	if err := fastmon.WriteSDF(&sdfBuf, c, annot); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SDF annotation: %d bytes\n", sdfBuf.Len())
	annot2, err := fastmon.ReadSDF(bytes.NewReader(sdfBuf.Bytes()), c, lib)
	if err != nil {
		log.Fatal(err)
	}

	// ATPG, archived and reloaded through the pattern format.
	pats, st, err := fastmon.GenerateTests(ctx, c, fastmon.FaultUniverse(c), 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ATPG: %d patterns, coverage %.1f%%\n", len(pats), st.Coverage()*100)
	var patBuf bytes.Buffer
	if err := fastmon.WritePatterns(&patBuf, c, pats); err != nil {
		log.Fatal(err)
	}
	reloaded, err := fastmon.ReadPatterns(bytes.NewReader(patBuf.Bytes()), c)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pattern archive: %d bytes, %d patterns reloaded\n", patBuf.Len(), len(reloaded))

	// Full flow on the Verilog-sourced design with the SDF timing.
	flow, err := fastmon.RunAnnotated(ctx, c, lib, annot2, fastmon.Config{MonitorFraction: 1.0, ATPGSeed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("flow: %d HDF candidates, conv %d / prop %d detected\n",
		len(flow.HDFs), len(flow.ConvDetected), len(flow.PropDetected))

	// And back out as .bench for other tools.
	var benchBuf bytes.Buffer
	if err := fastmon.WriteBench(&benchBuf, c); err != nil {
		log.Fatal(err)
	}
	fmt.Printf(".bench export: %d bytes\n", benchBuf.Len())
}
