package fastmon

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

func TestFacadeQuickstart(t *testing.T) {
	c := MustParseBench("s27", S27)
	flow, err := Run(context.Background(), c, NanGate45(), Config{ATPGSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if flow.Clk <= 0 || len(flow.Patterns) == 0 {
		t.Fatalf("flow incomplete: clk=%v patterns=%d", flow.Clk, len(flow.Patterns))
	}
	if len(flow.TargetData) > 0 {
		s, err := flow.BuildSchedule(context.Background(), MethodILP, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		if err := ValidateSchedule(flow.TargetData, s, flow.ScheduleOptions(MethodILP, 1.0)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFacadeBenchRoundTrip(t *testing.T) {
	c := MustParseBench("s27", S27)
	var buf bytes.Buffer
	if err := WriteBench(&buf, c); err != nil {
		t.Fatal(err)
	}
	back, err := ParseBench("s27", strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.NumGates() != c.NumGates() {
		t.Fatal("round trip changed the circuit")
	}
}

func TestFacadeSDF(t *testing.T) {
	c := MustParseBench("s27", S27)
	lib := NanGate45()
	a := Annotate(c, lib)
	var buf bytes.Buffer
	if err := WriteSDF(&buf, c, a); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSDF(strings.NewReader(buf.String()), c, lib)
	if err != nil {
		t.Fatal(err)
	}
	if back.MaxDelay(c.Topo()[0]) != a.MaxDelay(c.Topo()[0]) {
		t.Fatal("SDF round trip changed delays")
	}
}

func TestFacadeGenerateAndTiming(t *testing.T) {
	c, err := Generate(GenSpec{Name: "g", Gates: 100, FFs: 10, Inputs: 8, Outputs: 4, Depth: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := AnalyzeTiming(c, Annotate(c, NanGate45()))
	if r.CPL <= 0 {
		t.Fatal("CPL must be positive")
	}
	if len(FaultUniverse(c)) == 0 {
		t.Fatal("empty fault universe")
	}
}

func TestFacadeAging(t *testing.T) {
	c := MustParseBench("s27", S27)
	lib := NanGate45()
	a := Annotate(c, lib)
	aged := DegradeAnnotation(a, DefaultAgingModel(1), 10)
	faster := false
	for g := range a.Delay {
		for p := range a.Delay[g] {
			if aged.Delay[g][p].Rise < a.Delay[g][p].Rise {
				faster = true
			}
		}
	}
	if faster {
		t.Fatal("aging made gates faster")
	}
}

func TestFacadeVerilog(t *testing.T) {
	c := MustParseBench("s27", S27)
	var buf bytes.Buffer
	if err := WriteVerilog(&buf, c); err != nil {
		t.Fatal(err)
	}
	back, err := ParseVerilog("s27", strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.NumGates() != c.NumGates() || back.NumFFs() != c.NumFFs() {
		t.Fatal("verilog round trip changed the circuit")
	}
}

func TestFacadePatternsAndATPG(t *testing.T) {
	c := MustParseBench("s27", S27)
	pats, st, err := GenerateTests(context.Background(), c, FaultUniverse(c), 1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Coverage() < 0.99 || len(pats) == 0 {
		t.Fatalf("ATPG stats %+v", st)
	}
	var buf bytes.Buffer
	if err := WritePatterns(&buf, c, pats); err != nil {
		t.Fatal(err)
	}
	back, err := ReadPatterns(strings.NewReader(buf.String()), c)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(pats) {
		t.Fatal("pattern round trip changed the set")
	}
}

func TestFacadeSuite(t *testing.T) {
	if len(PaperSuite()) != 12 {
		t.Fatal("paper suite must have 12 circuits")
	}
	spec := PaperSuite()[0]
	r, err := RunExperiment(context.Background(), spec, SuiteConfig{Scale: 0.05, MaxFaults: 600})
	if err != nil {
		t.Fatal(err)
	}
	if r.Flow == nil || r.Spec.Name != spec.Name {
		t.Fatal("experiment run incomplete")
	}
}

func TestFacadeSimulatePattern(t *testing.T) {
	c := MustParseBench("s27", S27)
	a := Annotate(c, NanGate45())
	n := len(c.Sources())
	p := Pattern{V1: make([]bool, n), V2: make([]bool, n)}
	for i := range p.V2 {
		p.V2[i] = true
	}
	wfs, err := SimulatePattern(c, a, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(wfs) != len(c.Gates) {
		t.Fatalf("got %d waveforms for %d gates", len(wfs), len(c.Gates))
	}
}
