package sim_test

// The differential harness that locks the event-driven fault simulator to
// the naive full-resimulation reference engine. Every fault of every
// circuit is replayed under both engines — at the raw engine level
// (Detection sets) and through the whole detection-range driver
// (PatternRange sets via detect.Config.SlowSim) — and the outputs must be
// bit-identical. This is the merge gate for any change to the simulation
// core: the two engines share the waveform algebra but no propagation
// machinery, so agreement on bundled and randomized circuits is strong
// evidence of correctness.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"fastmon/internal/cell"
	"fastmon/internal/circuit"
	"fastmon/internal/detect"
	"fastmon/internal/exper"
	"fastmon/internal/fault"
	"fastmon/internal/monitor"
	"fastmon/internal/sim"
	"fastmon/internal/sta"
)

func randPatterns(c *circuit.Circuit, n int, rng *rand.Rand) []sim.Pattern {
	nsrc := len(c.Sources())
	pats := make([]sim.Pattern, n)
	for i := range pats {
		p := sim.Pattern{V1: make([]bool, nsrc), V2: make([]bool, nsrc)}
		for j := 0; j < nsrc; j++ {
			p.V1[j] = rng.Intn(2) == 0
			p.V2[j] = rng.Intn(2) == 0
		}
		pats[i] = p
	}
	return pats
}

// diffHarness replays every fault of the circuit under every pattern
// through both engines and fails on the first divergence.
func diffHarness(t *testing.T, c *circuit.Circuit, nPatterns int, seed int64) {
	t.Helper()
	lib := cell.NanGate45()
	a := cell.Annotate(c, lib)
	e := sim.NewEngine(c, a)
	r := sta.Analyze(c, a)
	clk := r.NominalClock(0.05)
	placement := monitor.Place(r, 0.5, monitor.StandardDelays(clk))
	rng := rand.New(rand.NewSource(seed))
	pats := randPatterns(c, nPatterns, rng)
	faults := fault.Universe(c)
	cfg := detect.Config{Clk: clk, TMin: clk / 3, Delta: lib.FaultSize(), Glitch: lib.MinPulse()}
	horizon := cfg.Clk + 1

	// Level 1: raw engine outputs. One shared scratch arena across all
	// faults doubles as a reset-isolation check.
	sc := e.NewScratch()
	var st sim.Stats
	for _, p := range pats {
		base, err := e.Baseline(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range faults {
			inj := f.Injection(cfg.Delta)
			fast := e.FaultSimScratch(base, inj, horizon, sc, &st)
			slow := e.FaultSimNaive(base, inj, horizon)
			if len(fast) != len(slow) {
				t.Fatalf("%s %s: %d detections event-driven vs %d naive",
					c.Name, f.Name(c), len(fast), len(slow))
			}
			for i := range fast {
				if fast[i].Tap != slow[i].Tap || !fast[i].Diff.Equal(slow[i].Diff) {
					t.Fatalf("%s %s: detection %d diverged: event-driven %d:%v, naive %d:%v",
						c.Name, f.Name(c), i, fast[i].Tap, fast[i].Diff, slow[i].Tap, slow[i].Diff)
				}
			}
		}
	}

	// Level 2: the full detection-range driver with the SlowSim escape
	// hatch flipped, asserting identical PatternRange sets.
	fastCfg, slowCfg := cfg, cfg
	slowCfg.SlowSim = true
	fastData, err := detect.Run(context.Background(), e, placement, faults, pats, fastCfg)
	if err != nil {
		t.Fatal(err)
	}
	slowData, err := detect.Run(context.Background(), e, placement, faults, pats, slowCfg)
	if err != nil {
		t.Fatal(err)
	}
	comparePatternRanges(t, c, faults, fastData, slowData)
}

func comparePatternRanges(t *testing.T, c *circuit.Circuit, faults []fault.Fault, fast, slow []detect.FaultData) {
	t.Helper()
	if len(fast) != len(slow) {
		t.Fatalf("%s: %d vs %d fault rows", c.Name, len(fast), len(slow))
	}
	for fi := range fast {
		if fast[fi].Fault != slow[fi].Fault {
			t.Fatalf("%s: fault order diverged at %d", c.Name, fi)
		}
		if len(fast[fi].Per) != len(slow[fi].Per) {
			t.Fatalf("%s %s: %d vs %d detecting patterns",
				c.Name, faults[fi].Name(c), len(fast[fi].Per), len(slow[fi].Per))
		}
		for i := range fast[fi].Per {
			a, b := fast[fi].Per[i], slow[fi].Per[i]
			if a.Pattern != b.Pattern || !a.FF.Equal(b.FF) || !a.SR.Equal(b.SR) {
				t.Fatalf("%s %s pattern %d: event-driven FF=%v SR=%v, naive FF=%v SR=%v",
					c.Name, faults[fi].Name(c), a.Pattern, a.FF, a.SR, b.FF, b.SR)
			}
		}
	}
}

// TestDifferentialBundledCircuits replays the embedded ISCAS netlists and
// every circuit of the paper suite (at the generator's floor sizes)
// through both engines.
func TestDifferentialBundledCircuits(t *testing.T) {
	t.Run("s27", func(t *testing.T) {
		diffHarness(t, circuit.MustParseBench("s27", circuit.S27), 12, 27)
	})
	t.Run("c17", func(t *testing.T) {
		diffHarness(t, circuit.MustParseBench("c17", circuit.C17), 12, 17)
	})
	for _, spec := range exper.PaperSuite {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			c, err := spec.Build(0.002) // floor sizes: ~60 gates, 8 FFs
			if err != nil {
				t.Fatal(err)
			}
			diffHarness(t, c, 4, spec.Seed)
		})
	}
}

// TestDifferentialRandomCircuits fuzzes the equivalence over randomly
// generated netlists: varied size, depth, fanout structure and I/O shape.
func TestDifferentialRandomCircuits(t *testing.T) {
	n := 120
	if testing.Short() {
		n = 25
	}
	rng := rand.New(rand.NewSource(424242))
	for i := 0; i < n; i++ {
		spec := circuit.GenSpec{
			Name:    fmt.Sprintf("rand%03d", i),
			Gates:   20 + rng.Intn(100),
			FFs:     1 + rng.Intn(12),
			Inputs:  2 + rng.Intn(8),
			Outputs: 1 + rng.Intn(6),
			Depth:   3 + rng.Intn(14),
			Seed:    rng.Int63(),
		}
		c, err := circuit.Generate(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		diffHarness(t, c, 3, int64(i)*7919+1)
	}
}

// TestDifferentialConeSkipSound proves the tap-reachability pruning of the
// fast path never drops a detection: on a circuit with deliberately
// unobservable logic, the naive engine (which does not prune) agrees.
func TestDifferentialConeSkipSound(t *testing.T) {
	c := circuit.New("deadcone")
	pi := c.AddGate("pi", circuit.Input)
	obs1 := c.AddGate("obs1", circuit.Not, pi)
	c.MarkOutput(obs1)
	// A chain that feeds nothing observable.
	d1 := c.AddGate("d1", circuit.Not, pi)
	c.AddGate("d2", circuit.And, d1, obs1)
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	if c.ReachesTap(obs1) != true {
		t.Fatal("observable gate classified unreachable")
	}
	if d2, _ := c.GateID("d2"); c.ReachesTap(d2) {
		t.Fatal("dangling gate classified reachable")
	}
	diffHarness(t, c, 8, 99)
}
