package exper

import (
	"context"
	"strings"
	"testing"

	"fastmon/internal/schedule"
)

func smallCfg() SuiteConfig {
	return SuiteConfig{Scale: 0.05, MaxFaults: 800, Names: []string{"s9234"}}
}

func TestSpecByName(t *testing.T) {
	if _, ok := SpecByName("s9234"); !ok {
		t.Fatal("s9234 missing")
	}
	if _, ok := SpecByName("nope"); ok {
		t.Fatal("unknown circuit accepted")
	}
	if len(PaperSuite) != 12 {
		t.Fatalf("suite has %d circuits, want 12", len(PaperSuite))
	}
}

func TestGenSpecScaling(t *testing.T) {
	s, _ := SpecByName("s13207")
	g := s.GenSpec(0.1)
	if g.Gates < 250 || g.Gates > 320 {
		t.Fatalf("scaled gates = %d", g.Gates)
	}
	if g.FFs < 50 || g.FFs > 80 {
		t.Fatalf("scaled FFs = %d", g.FFs)
	}
	full := s.GenSpec(1.0)
	if full.Gates != 2867 || full.FFs != 669 {
		t.Fatalf("full scale = %+v", full)
	}
	// Out-of-range scale falls back to full size.
	if s.GenSpec(-1).Gates != 2867 || s.GenSpec(2).Gates != 2867 {
		t.Fatal("scale fallback wrong")
	}
	// Determinism.
	c1, err := s.Build(0.1)
	if err != nil {
		t.Fatal(err)
	}
	c2, _ := s.Build(0.1)
	if c1.NumGates() != c2.NumGates() {
		t.Fatal("Build not deterministic")
	}
}

func TestSuiteConfigSelect(t *testing.T) {
	cfg := SuiteConfig{Names: []string{"p35k", "s9234"}}
	specs, err := cfg.Select()
	if err != nil || len(specs) != 2 || specs[0].Name != "p35k" {
		t.Fatalf("specs=%v err=%v", specs, err)
	}
	if _, err := (SuiteConfig{Names: []string{"bogus"}}).Select(); err == nil {
		t.Fatal("bogus name accepted")
	}
	all, err := (SuiteConfig{}).Select()
	if err != nil || len(all) != 12 {
		t.Fatal("empty selection must return the full suite")
	}
}

func TestRunCircuitAndTables(t *testing.T) {
	r, err := RunCircuit(context.Background(), mustSpec(t, "s9234"), smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	row1 := TableI(r)
	if row1.Name != "s9234" || row1.Gates <= 0 || row1.M <= 0 {
		t.Fatalf("T1 row = %+v", row1)
	}
	if row1.Prop < row1.Conv {
		t.Fatalf("monitors reduced coverage: %+v", row1)
	}
	if row1.Target > row1.Prop {
		t.Fatalf("target exceeds prop-detected: %+v", row1)
	}

	row2, schedules, err := TableII(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	if row2.PropF > row2.HeurF {
		t.Fatalf("ILP worse than heuristic: %+v", row2)
	}
	if row2.Opti > row2.Orig {
		t.Fatalf("optimized larger than naïve: %+v", row2)
	}
	if row2.DeltaPCPct <= 0 {
		t.Fatalf("no test-time reduction: %+v", row2)
	}
	for m, s := range schedules {
		opt := r.Flow.ScheduleOptions(m, 1.0)
		if err := schedule.Validate(r.Flow.TargetData, s, opt); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
	}

	row3, schedules3, err := TableIII(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	if len(row3.Cells) != 4 || len(schedules3) != 4 {
		t.Fatalf("T3 cells = %d, schedules = %d", len(row3.Cells), len(schedules3))
	}
	solves := 0
	for _, s := range schedules3 {
		solves += s.Solver.Solves
	}
	if solves == 0 {
		t.Fatal("TableIII reported no exact solves")
	}
	prevF, prevS := 1<<30, 1<<30
	for _, cell := range row3.Cells {
		if cell.F > prevF || cell.S > prevS {
			t.Fatalf("resources grew as coverage relaxed: %+v", row3)
		}
		if cell.S > cell.PC {
			t.Fatalf("schedule larger than naïve: %+v", cell)
		}
		prevF, prevS = cell.F, cell.S
	}
	// Table III at 99% must not need more than Table II at 100%.
	if row3.Cells[0].F > row2.PropF {
		t.Fatalf("99%% needs more frequencies than 100%%: %d > %d", row3.Cells[0].F, row2.PropF)
	}

	pts := Fig3(r, 8)
	if len(pts) != 9 {
		t.Fatalf("fig3 points = %d", len(pts))
	}
	for i, p := range pts {
		if p.PropPct < p.ConvPct-1e-9 {
			t.Fatalf("prop below conv at point %d: %+v", i, p)
		}
		if i > 0 && (p.ConvPct < pts[i-1].ConvPct-1e-9 || p.PropPct < pts[i-1].PropPct-1e-9) {
			t.Fatalf("coverage not monotone at point %d", i)
		}
	}
	// The headline claim: with monitors the coverage at the capped
	// frequency range exceeds conventional FAST.
	last := pts[len(pts)-1]
	if last.PropPct <= last.ConvPct {
		t.Logf("warning: no coverage gain at fmax (conv %.1f, prop %.1f)", last.ConvPct, last.PropPct)
	}

	// Rendering smoke tests.
	var sb strings.Builder
	WriteTableI(&sb, []T1Row{row1})
	WriteTableII(&sb, []T2Row{row2})
	WriteTableIII(&sb, []T3Row{row3})
	WriteFig3(&sb, pts)
	out := sb.String()
	for _, want := range []string{"TABLE I.", "TABLE II.", "TABLE III.", "Fig. 3.", "s9234"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendering missing %q", want)
		}
	}
}

// BenchmarkFig3CoverageSweep measures the Fig. 3 coverage-vs-f_max sweep
// (conventional vs monitor-assisted HDF coverage) on the detection data of
// a scaled s9234.
func BenchmarkFig3CoverageSweep(b *testing.B) {
	spec, _ := SpecByName("s9234")
	r, err := RunCircuit(context.Background(), spec, SuiteConfig{Scale: 0.05, MaxFaults: 900})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pts := Fig3(r, 10); len(pts) != 11 {
			b.Fatal("bad sweep")
		}
	}
}

func TestRunSuiteSubset(t *testing.T) {
	if testing.Short() {
		t.Skip("suite run in short mode")
	}
	cfg := SuiteConfig{Scale: 0.06, MaxFaults: 800, Names: []string{"s9234", "s13207"}}
	results, err := RunSuite(context.Background(), cfg, TableRequest{T1: true}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	for _, r := range results {
		if r.T1.Target == 0 {
			t.Fatalf("%s: no target faults", r.Name)
		}
	}
}

func mustSpec(t *testing.T, name string) Spec {
	t.Helper()
	s, ok := SpecByName(name)
	if !ok {
		t.Fatalf("spec %s missing", name)
	}
	return s
}
