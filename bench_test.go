package fastmon

// Benchmarks regenerating every evaluation artifact of the paper plus the
// hot kernels underneath them. Each table/figure has a dedicated bench;
// experiment-scale parameters are reduced so a full `go test -bench=.`
// completes on a laptop. Run `cmd/tablegen` for the full suite output.

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"fastmon/internal/atpg"
	"fastmon/internal/cell"
	"fastmon/internal/circuit"
	"fastmon/internal/detect"
	"fastmon/internal/diagnose"
	"fastmon/internal/dot"
	"fastmon/internal/exper"
	"fastmon/internal/fault"
	"fastmon/internal/interval"
	"fastmon/internal/logic"
	"fastmon/internal/monitor"
	"fastmon/internal/schedule"
	"fastmon/internal/sim"
	"fastmon/internal/sta"
	"fastmon/internal/tunit"
	"fastmon/internal/verilog"
	"math/rand"
)

func benchCfg() exper.SuiteConfig {
	return exper.SuiteConfig{Scale: 0.05, MaxFaults: 900}
}

func benchRun(b *testing.B, name string) *exper.Run {
	b.Helper()
	spec, ok := exper.SpecByName(name)
	if !ok {
		b.Fatalf("unknown spec %s", name)
	}
	r, err := exper.RunCircuit(context.Background(), spec, benchCfg())
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkFig3CoverageSweep regenerates the Fig. 3 coverage-vs-f_max
// sweep (conventional vs monitor-assisted HDF coverage).
func BenchmarkFig3CoverageSweep(b *testing.B) {
	r := benchRun(b, "s9234")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts := exper.Fig3(r, 10)
		if len(pts) != 11 {
			b.Fatal("bad sweep")
		}
	}
}

// BenchmarkTableI regenerates a Table I row: the full flow (ATPG, fault
// simulation, detection ranges, classification) for a scaled s9234.
func BenchmarkTableI(b *testing.B) {
	spec, _ := exper.SpecByName("s9234")
	cfg := benchCfg()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := exper.RunCircuit(context.Background(), spec, cfg)
		if err != nil {
			b.Fatal(err)
		}
		row := exper.TableI(r)
		if row.Prop < row.Conv {
			b.Fatal("monitors reduced coverage")
		}
	}
}

// BenchmarkTableII regenerates a Table II row: the three schedules
// (conventional, heuristic, ILP) on precomputed detection data.
func BenchmarkTableII(b *testing.B) {
	r := benchRun(b, "s9234")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row, _, err := exper.TableII(context.Background(), r)
		if err != nil {
			b.Fatal(err)
		}
		if row.PropF > row.HeurF {
			b.Fatal("ILP worse than greedy")
		}
	}
}

// BenchmarkTableIII regenerates a Table III row: ILP schedules for the
// four partial-coverage targets.
func BenchmarkTableIII(b *testing.B) {
	r := benchRun(b, "s9234")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row, _, err := exper.TableIII(context.Background(), r)
		if err != nil {
			b.Fatal(err)
		}
		if len(row.Cells) != 4 {
			b.Fatal("bad row")
		}
	}
}

// --- component kernels ----------------------------------------------------

// BenchmarkWaveformGateEval measures the waveform-evaluation kernel of the
// timing-accurate simulator.
func BenchmarkWaveformGateEval(b *testing.B) {
	d := []cell.Edge{{Rise: 25, Fall: 22}, {Rise: 29, Fall: 26}, {Rise: 33, Fall: 30}}
	ins := []sim.Waveform{
		{Init: false, T: []tunit.Time{100, 180, 300, 460}},
		{Init: true, T: []tunit.Time{150, 240}},
		{Init: false, T: []tunit.Time{90, 210, 350}},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sim.EvalGate(circuit.Nand, ins, d, 7)
	}
}

// BenchmarkBaselineSimulation measures one fault-free pattern simulation
// of a 1.3k-gate circuit.
func BenchmarkBaselineSimulation(b *testing.B) {
	c := circuit.MustGenerate(circuit.GenSpec{Name: "b", Gates: 1300, FFs: 128, Inputs: 16, Outputs: 12, Depth: 24, Seed: 1})
	e := sim.NewEngine(c, cell.Annotate(c, cell.NanGate45()))
	nsrc := len(c.Sources())
	rng := rand.New(rand.NewSource(1))
	p := sim.Pattern{V1: make([]bool, nsrc), V2: make([]bool, nsrc)}
	for i := 0; i < nsrc; i++ {
		p.V1[i] = rng.Intn(2) == 0
		p.V2[i] = rng.Intn(2) == 0
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Baseline(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFaultInjection measures cone-restricted faulty re-simulation.
func BenchmarkFaultInjection(b *testing.B) {
	c := circuit.MustGenerate(circuit.GenSpec{Name: "b", Gates: 1300, FFs: 128, Inputs: 16, Outputs: 12, Depth: 24, Seed: 1})
	a := cell.Annotate(c, cell.NanGate45())
	e := sim.NewEngine(c, a)
	nsrc := len(c.Sources())
	rng := rand.New(rand.NewSource(1))
	p := sim.Pattern{V1: make([]bool, nsrc), V2: make([]bool, nsrc)}
	for i := 0; i < nsrc; i++ {
		p.V1[i] = rng.Intn(2) == 0
		p.V2[i] = rng.Intn(2) == 0
	}
	base, err := e.Baseline(p)
	if err != nil {
		b.Fatal(err)
	}
	faults := fault.Universe(c)
	horizon := sta.Analyze(c, a).NominalClock(0.05) + 1
	delta := a.Lib.FaultSize()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := faults[i%len(faults)]
		e.FaultSim(base, f.Injection(delta), horizon)
	}
}

// BenchmarkParallelPatternFaultSim measures the 64-way logic fault
// simulator that drives ATPG fault dropping.
func BenchmarkParallelPatternFaultSim(b *testing.B) {
	c := circuit.MustGenerate(circuit.GenSpec{Name: "b", Gates: 1300, FFs: 128, Inputs: 16, Outputs: 12, Depth: 24, Seed: 1})
	faults := fault.Universe(c)
	pats, _, err := atpg.Generate(context.Background(), c, faults[:200], atpg.DefaultConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	if len(pats) == 0 {
		b.Fatal("no patterns")
	}
	batch := logic.NewBatch(c, pats, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch.DetectTransition(faults[i%len(faults)])
	}
}

// BenchmarkATPG measures full test generation for a 350-gate circuit.
func BenchmarkATPG(b *testing.B) {
	c := circuit.MustGenerate(circuit.GenSpec{Name: "b", Gates: 350, FFs: 32, Inputs: 12, Outputs: 10, Depth: 14, Seed: 2})
	faults := fault.Universe(c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st, err := atpg.Generate(context.Background(), c, faults, atpg.DefaultConfig(3))
		if err != nil {
			b.Fatal(err)
		}
		if st.Detected == 0 {
			b.Fatal("ATPG detected nothing")
		}
	}
}

// BenchmarkDetectionRanges measures the full detection-range computation
// (flow steps 2–4) for a scaled circuit.
func BenchmarkDetectionRanges(b *testing.B) {
	c := circuit.MustGenerate(circuit.GenSpec{Name: "b", Gates: 600, FFs: 48, Inputs: 12, Outputs: 10, Depth: 18, Seed: 2})
	lib := cell.NanGate45()
	a := cell.Annotate(c, lib)
	r := sta.Analyze(c, a)
	clk := r.NominalClock(0.05)
	placement := monitor.Place(r, 0.25, monitor.StandardDelays(clk))
	e := sim.NewEngine(c, a)
	faults := fault.Sample(fault.Universe(c), 4)
	pats, _, err := atpg.Generate(context.Background(), c, faults, atpg.DefaultConfig(3))
	if err != nil {
		b.Fatal(err)
	}
	cfg := detect.Config{Clk: clk, TMin: clk / 3, Delta: lib.FaultSize(), Glitch: lib.MinPulse()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := detect.Run(context.Background(), e, placement, faults, pats, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDiscretize measures observation-time discretization (Fig. 5).
func BenchmarkDiscretize(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	ranges := make([]interval.Set, 2000)
	for i := range ranges {
		var ivs []interval.Interval
		for k := 0; k < 1+rng.Intn(3); k++ {
			lo := tunit.Time(rng.Intn(3000))
			ivs = append(ivs, interval.Interval{Lo: lo, Hi: lo + tunit.Time(20+rng.Intn(400))})
		}
		ranges[i] = interval.New(ivs...)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cands := dot.Discretize(ranges); len(cands) == 0 {
			b.Fatal("no candidates")
		}
	}
}

// BenchmarkScheduleILP measures the full two-step schedule construction.
func BenchmarkScheduleILP(b *testing.B) {
	r := benchRun(b, "s13207")
	flow := r.Flow
	opt := flow.ScheduleOptions(schedule.ILP, 1.0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := schedule.Build(context.Background(), flow.TargetData, opt)
		if err != nil {
			b.Fatal(err)
		}
		if s.Covered != s.Coverable {
			b.Fatal("incomplete cover")
		}
	}
}

// BenchmarkAgingLifecycle measures one lifetime checkpoint simulation.
func BenchmarkAgingLifecycle(b *testing.B) {
	c := circuit.MustGenerate(circuit.GenSpec{Name: "b", Gates: 600, FFs: 48, Inputs: 12, Outputs: 8, Depth: 18, Seed: 42})
	lib := cell.NanGate45()
	a := cell.Annotate(c, lib)
	r := sta.Analyze(c, a)
	clk := r.CPL * 2
	placement := monitor.Place(r, 0.25, monitor.StandardDelays(clk))
	nsrc := len(c.Sources())
	pat := sim.Pattern{V1: make([]bool, nsrc), V2: make([]bool, nsrc)}
	for i := 0; i < nsrc; i++ {
		pat.V2[i] = i%3 != 0
	}
	model := AgingModel{A: 0.85, N: 0.35, Seed: 7}
	years := []float64{0, 10, 20, 40}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SimulateAging(c, a, placement, pat, clk, model, years); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerilogParse measures the structural-Verilog front end on a
// generated netlist.
func BenchmarkVerilogParse(b *testing.B) {
	c := circuit.MustGenerate(circuit.GenSpec{Name: "vp", Gates: 1000, FFs: 80, Inputs: 16, Outputs: 12, Depth: 20, Seed: 3})
	var buf bytes.Buffer
	if err := verilog.Write(&buf, c); err != nil {
		b.Fatal(err)
	}
	src := buf.String()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := verilog.Parse("vp", strings.NewReader(src)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDiagnose measures ranking 500 candidate faults against 6
// observations.
func BenchmarkDiagnose(b *testing.B) {
	c := circuit.MustGenerate(circuit.GenSpec{Name: "dg", Gates: 300, FFs: 24, Inputs: 10, Outputs: 8, Depth: 14, Seed: 99})
	lib := cell.NanGate45()
	a := cell.Annotate(c, lib)
	r := sta.Analyze(c, a)
	clk := r.NominalClock(0.05)
	placement := monitor.Place(r, 0.5, monitor.StandardDelays(clk))
	e := sim.NewEngine(c, a)
	faults := fault.Universe(c)
	if len(faults) > 500 {
		faults = faults[:500]
	}
	pats, _, err := atpg.Generate(context.Background(), c, faults, atpg.DefaultConfig(7))
	if err != nil {
		b.Fatal(err)
	}
	cfg := diagnose.Config{Delta: lib.FaultSize(), Glitch: lib.MinPulse()}
	obs := []diagnose.Observation{
		{Period: clk * 2 / 5, Pattern: 0, Config: 3},
		{Period: clk * 2 / 5, Pattern: 1 % len(pats), Config: 1},
		{Period: clk / 2, Pattern: 2 % len(pats), Config: -1},
		{Period: clk * 3 / 5, Pattern: 3 % len(pats), Config: 0},
		{Period: clk * 7 / 10, Pattern: 4 % len(pats), Config: 2},
		{Period: clk * 4 / 5, Pattern: 5 % len(pats), Config: 3},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := diagnose.Run(e, placement, pats, faults, obs, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
