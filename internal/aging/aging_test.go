package aging

import (
	"testing"

	"fastmon/internal/cell"
	"fastmon/internal/circuit"
	"fastmon/internal/monitor"
	"fastmon/internal/sim"
	"fastmon/internal/sta"
)

func TestModelFactor(t *testing.T) {
	m := DefaultModel(1)
	if m.Factor(1, 0) != 1 {
		t.Fatal("factor at t=0 must be 1")
	}
	f1, f10 := m.Factor(1, 1), m.Factor(1, 10)
	if f1 <= 1 || f10 <= f1 {
		t.Fatalf("degradation not monotone: %f %f", f1, f10)
	}
	// ~10% at 10 years full stress.
	if f10 < 1.05 || f10 > 1.2 {
		t.Fatalf("10-year degradation = %f, want ≈1.1", f10)
	}
	if m.Factor(0, 10) != 1 {
		t.Fatal("zero activity must not age")
	}
}

func TestDegradeDeterministicMonotone(t *testing.T) {
	c := circuit.MustParseBench("s27", circuit.S27)
	a := cell.Annotate(c, cell.NanGate45())
	m := DefaultModel(7)
	d1 := Degrade(a, m, 5)
	d2 := Degrade(a, m, 5)
	d3 := Degrade(a, m, 10)
	for g := range a.Delay {
		for p := range a.Delay[g] {
			if d1.Delay[g][p] != d2.Delay[g][p] {
				t.Fatal("Degrade not deterministic")
			}
			if d1.Delay[g][p].Rise < a.Delay[g][p].Rise {
				t.Fatal("aging made a gate faster")
			}
			if d3.Delay[g][p].Rise < d1.Delay[g][p].Rise {
				t.Fatal("more years made a gate faster")
			}
		}
	}
}

// lifecycleBed builds a chain circuit whose single monitored FF sees a
// slowly degrading path.
func lifecycleBed(t *testing.T) (*circuit.Circuit, *cell.Annotation, *monitor.Placement, sim.Pattern, *sta.Result) {
	t.Helper()
	c := circuit.New("chain")
	prev := c.AddGate("pi", circuit.Input)
	for i := 0; i < 12; i++ {
		prev = c.AddGate("n"+string(rune('a'+i)), circuit.Not, prev)
	}
	c.AddGate("ff0", circuit.DFF, prev)
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	a := cell.Annotate(c, cell.NanGate45())
	r := sta.Analyze(c, a)
	clk := r.NominalClock(0.05)
	placement := monitor.Place(r, 1.0, monitor.StandardDelays(clk))
	return c, a, placement, sim.Pattern{V1: []bool{false, false}, V2: []bool{true, false}}, r
}

func TestSimulateLifecycle(t *testing.T) {
	c, a, placement, pat, r := lifecycleBed(t)
	// Aging monitoring runs in the functional mode, whose clock has real
	// margin (a path filling 95% of the period would sit inside any wide
	// guard band from day one). Use a 2× functional period; the guard
	// bands scale with it.
	clk := r.CPL * 2
	placement = monitor.Place(r, 1.0, monitor.StandardDelays(clk))
	// Aggressive model so the lifecycle completes within the checkpoints.
	model := Model{A: 0.5, N: 0.35, Seed: 3}
	years := make([]float64, 0, 60)
	for y := 0.0; y <= 100; y += 2 {
		years = append(years, y)
	}
	steps, err := Simulate(c, a, placement, pat, clk, model, years)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) < 2 {
		t.Fatalf("lifecycle too short: %d steps", len(steps))
	}
	if steps[0].Phase != Healthy {
		t.Fatalf("fresh device not healthy: %+v", steps[0])
	}
	// Config never widens; phases never regress.
	for i := 1; i < len(steps); i++ {
		if steps[i].Config > steps[i-1].Config {
			t.Fatal("guard band widened over life")
		}
		if steps[i].Phase < steps[i-1].Phase {
			t.Fatal("phase regressed")
		}
	}
	last := steps[len(steps)-1]
	if last.Phase != Imminent {
		t.Fatalf("lifecycle never predicted failure: %+v", last)
	}
	// Failure must be predicted while the device still works: at the
	// prediction year the main flip-flop must still capture the settled
	// (correct) value at the functional clock.
	aged := Degrade(a, model, last.Years)
	e := sim.NewEngine(c, aged)
	wfs, err := e.Baseline(pat)
	if err != nil {
		t.Fatal(err)
	}
	tap := c.Taps()[0]
	w := wfs[tap.Gate]
	if w.At(clk) != w.Final() {
		t.Fatalf("prediction too late: wrong capture at %v years", last.Years)
	}
}

func TestSimulateNoConfigs(t *testing.T) {
	c, a, _, pat, r := lifecycleBed(t)
	clk := r.NominalClock(0.05)
	empty := monitor.Place(r, 1.0, nil)
	if _, err := Simulate(c, a, empty, pat, clk, DefaultModel(1), []float64{0}); err == nil {
		t.Fatal("expected error without delay elements")
	}
}

func TestPhaseString(t *testing.T) {
	for p := Healthy; p <= Imminent; p++ {
		if p.String() == "" {
			t.Fatal("empty phase name")
		}
	}
	if Phase(9).String() == "" {
		t.Fatal("unknown phase must render")
	}
}

// BenchmarkAgingLifecycle measures the Fig. 2 guard-band lifecycle over
// four lifetime checkpoints.
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
	model := Model{A: 0.85, N: 0.35, Seed: 7}
	years := []float64{0, 10, 20, 40}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(c, a, placement, pat, clk, model, years); err != nil {
			b.Fatal(err)
		}
	}
}
