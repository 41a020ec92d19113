package sim

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"fastmon/internal/cell"
	"fastmon/internal/circuit"
	"fastmon/internal/tunit"
)

func TestEvalGateBasic(t *testing.T) {
	d := []cell.Edge{{Rise: 10, Fall: 8}, {Rise: 12, Fall: 9}}
	// AND gate: a rises at 100, b constant 1 → output rises at 110.
	a := Step(false, true, 100)
	b := Const(true)
	out := EvalGate(circuit.And, []Waveform{a, b}, d, 0)
	if !out.Equal(wf(false, 110)) {
		t.Fatalf("AND out = %v", out)
	}
	// NAND: output falls at 108 (fall delay of pin 0).
	out = EvalGate(circuit.Nand, []Waveform{a, b}, d, 0)
	if !out.Equal(wf(true, 108)) {
		t.Fatalf("NAND out = %v", out)
	}
	// Controlled side: AND with b=0 never toggles.
	out = EvalGate(circuit.And, []Waveform{a, Const(false)}, d, 0)
	if out.Toggles() != 0 || out.Init {
		t.Fatalf("controlled AND = %v", out)
	}
}

func TestEvalGateHazard(t *testing.T) {
	// XOR with both inputs rising at slightly different times creates a
	// static hazard pulse.
	d := []cell.Edge{{Rise: 10, Fall: 10}, {Rise: 10, Fall: 10}}
	a := Step(false, true, 100)
	b := Step(false, true, 105)
	out := EvalGate(circuit.Xor, []Waveform{a, b}, d, 0)
	if !out.Equal(wf(false, 110, 115)) {
		t.Fatalf("XOR hazard = %v", out)
	}
	// With inertial filtering ≥ 5ps the pulse disappears.
	out = EvalGate(circuit.Xor, []Waveform{a, b}, d, 6)
	if out.Toggles() != 0 {
		t.Fatalf("hazard not filtered: %v", out)
	}
}

func TestEvalGateCancellation(t *testing.T) {
	// OR gate, pin delays differ: pin0 slow (20), pin1 fast (5).
	d := []cell.Edge{{Rise: 20, Fall: 20}, {Rise: 5, Fall: 5}}
	// pin0 rises at 100 (out would rise at 120), pin1 rises at 110 (out
	// would rise at 115): the later input event overtakes the earlier
	// scheduled one; output must rise once at 115.
	a := Step(false, true, 100)
	b := Step(false, true, 110)
	out := EvalGate(circuit.Or, []Waveform{a, b}, d, 0)
	if !out.Equal(wf(false, 115)) {
		t.Fatalf("cancellation = %v", out)
	}
}

func TestEvalGateSimultaneousToggles(t *testing.T) {
	// Both NAND inputs toggle at t=50 in opposite directions: function
	// value may change once; simultaneous events are processed together.
	d := []cell.Edge{{Rise: 10, Fall: 10}, {Rise: 14, Fall: 14}}
	a := Step(false, true, 50)
	b := Step(true, false, 50)
	// NAND(0,1)=1 → NAND(1,0)=1: no output change.
	out := EvalGate(circuit.Nand, []Waveform{a, b}, d, 0)
	if out.Toggles() != 0 || !out.Init {
		t.Fatalf("simultaneous = %v", out)
	}
}

func TestEvalGateInverterChainStability(t *testing.T) {
	// Stable inputs produce stable outputs (idempotence).
	d := []cell.Edge{{Rise: 15, Fall: 13}}
	out := EvalGate(circuit.Not, []Waveform{Const(true)}, d, 0)
	if out.Toggles() != 0 || out.Init {
		t.Fatalf("stable = %v", out)
	}
}

func newS27Engine(t *testing.T) *Engine {
	t.Helper()
	c := circuit.MustParseBench("s27", circuit.S27)
	return NewEngine(c, cell.Annotate(c, cell.NanGate45()))
}

func TestBaselineS27(t *testing.T) {
	e := newS27Engine(t)
	n := len(e.C.Sources())
	p := Pattern{V1: make([]bool, n), V2: make([]bool, n)}
	for i := range p.V2 {
		p.V2[i] = i%2 == 0
	}
	wfs, err := e.Baseline(p)
	if err != nil {
		t.Fatal(err)
	}
	// Final values must match zero-delay logic evaluation of V2.
	want := logicEval(e.C, p.V2)
	for _, id := range e.C.Topo() {
		if wfs[id].Final() != want[id] {
			t.Fatalf("gate %s: final %v, want %v", e.C.Gates[id].Name, wfs[id].Final(), want[id])
		}
		if !wfs[id].valid() {
			t.Fatalf("gate %s: invalid waveform %v", e.C.Gates[id].Name, wfs[id])
		}
	}
	// Initial values must match zero-delay evaluation of V1.
	wantInit := logicEval(e.C, p.V1)
	for _, id := range e.C.Topo() {
		if wfs[id].Init != wantInit[id] {
			t.Fatalf("gate %s: init %v, want %v", e.C.Gates[id].Name, wfs[id].Init, wantInit[id])
		}
	}
}

func TestBaselineSizeMismatch(t *testing.T) {
	e := newS27Engine(t)
	if _, err := e.Baseline(Pattern{V1: []bool{true}, V2: []bool{false}}); err == nil {
		t.Fatal("expected size mismatch error")
	}
}

// logicEval computes zero-delay steady-state values for a single vector.
func logicEval(c *circuit.Circuit, v []bool) []bool {
	val := make([]bool, len(c.Gates))
	for i, id := range c.Sources() {
		val[id] = v[i]
	}
	ins := make([]bool, 0, 8)
	for _, id := range c.Topo() {
		g := &c.Gates[id]
		ins = ins[:0]
		for _, f := range g.Fanin {
			ins = append(ins, val[f])
		}
		val[id] = g.Kind.Eval(ins)
	}
	return val
}

func TestFaultSimDetectsInjectedDelay(t *testing.T) {
	// Chain pi -> not -> not -> PO; fault on the first inverter's output.
	c := circuit.New("chain2")
	pi := c.AddGate("pi", circuit.Input)
	n1 := c.AddGate("n1", circuit.Not, pi)
	n2 := c.AddGate("n2", circuit.Not, n1)
	c.MarkOutput(n2)
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	a := cell.Annotate(c, cell.NanGate45())
	e := NewEngine(c, a)
	p := Pattern{V1: []bool{false}, V2: []bool{true}}
	base, err := e.Baseline(p)
	if err != nil {
		t.Fatal(err)
	}
	// pi rises at 0 → n1 falls → n2 rises. Slow-to-fall fault at n1 output
	// delays the n2 rise by delta.
	delta := tunit.Time(100)
	dets := e.FaultSim(base, Injection{Gate: n1, Pin: -1, Rising: false, Delta: delta}, 10000)
	if len(dets) != 1 {
		t.Fatalf("detections = %v", dets)
	}
	d := dets[0].Diff
	if d.Empty() {
		t.Fatal("no detection interval")
	}
	if d.Measure() != delta {
		t.Fatalf("detection width = %d, want %d", d.Measure(), delta)
	}
	// The interval must start at the fault-free arrival of the n2 rise.
	wantLo := base[n2].T[0]
	if d.Min() != wantLo {
		t.Fatalf("interval = %v, want start %d", d, wantLo)
	}
}

func TestFaultSimInputPin(t *testing.T) {
	// AND(a,b): slow-to-rise on pin 1 (b) with b rising and a constant 1.
	c := circuit.New("andg")
	a0 := c.AddGate("a", circuit.Input)
	b0 := c.AddGate("b", circuit.Input)
	g := c.AddGate("g", circuit.And, a0, b0)
	c.MarkOutput(g)
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	an := cell.Annotate(c, cell.NanGate45())
	e := NewEngine(c, an)
	p := Pattern{V1: []bool{true, false}, V2: []bool{true, true}}
	base, _ := e.Baseline(p)
	delta := tunit.Time(70)
	dets := e.FaultSim(base, Injection{Gate: g, Pin: 1, Rising: true, Delta: delta}, 10000)
	if len(dets) != 1 || dets[0].Diff.Measure() != delta {
		t.Fatalf("detections = %v", dets)
	}
	// The same fault on pin 0 is not activated (a has no transition).
	dets = e.FaultSim(base, Injection{Gate: g, Pin: 0, Rising: true, Delta: delta}, 10000)
	if len(dets) != 0 {
		t.Fatalf("inactive fault detected: %v", dets)
	}
	// Out-of-range pin is ignored.
	if dets := e.FaultSim(base, Injection{Gate: g, Pin: 5, Rising: true, Delta: delta}, 10000); dets != nil {
		t.Fatal("out-of-range pin must yield nil")
	}
}

func TestFaultSimHorizonClipping(t *testing.T) {
	c := circuit.New("chain3")
	pi := c.AddGate("pi", circuit.Input)
	n1 := c.AddGate("n1", circuit.Not, pi)
	c.MarkOutput(n1)
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(c, cell.Annotate(c, cell.NanGate45()))
	base, _ := e.Baseline(Pattern{V1: []bool{false}, V2: []bool{true}})
	dets := e.FaultSim(base, Injection{Gate: n1, Pin: -1, Rising: false, Delta: 50}, 20)
	// Fault-free fall is at ~13ps; detection [13,63) clipped to [13,20).
	if len(dets) != 1 {
		t.Fatalf("detections = %v", dets)
	}
	if dets[0].Diff.Max() > 20 {
		t.Fatalf("diff exceeds horizon: %v", dets[0].Diff)
	}
}

func TestFaultSimS27AllSitesValid(t *testing.T) {
	e := newS27Engine(t)
	n := len(e.C.Sources())
	rng := rand.New(rand.NewSource(7))
	horizon := tunit.Time(5000)
	for trial := 0; trial < 20; trial++ {
		p := Pattern{V1: make([]bool, n), V2: make([]bool, n)}
		for i := 0; i < n; i++ {
			p.V1[i] = rng.Intn(2) == 0
			p.V2[i] = rng.Intn(2) == 0
		}
		base, err := e.Baseline(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range e.C.Topo() {
			for pin := -1; pin < len(e.C.Gates[id].Fanin); pin++ {
				for _, rising := range []bool{true, false} {
					dets := e.FaultSim(base, Injection{Gate: id, Pin: pin, Rising: rising, Delta: 30}, horizon)
					for _, d := range dets {
						if d.Diff.Empty() || !d.Diff.Canonical() {
							t.Fatalf("bad detection %v for gate %d pin %d", d.Diff, id, pin)
						}
						if d.Diff.Min() < 0 || d.Diff.Max() > horizon {
							t.Fatalf("detection outside horizon: %v", d.Diff)
						}
					}
				}
			}
		}
	}
}

// TestPropZeroDeltaNeverDetected: a fault of size 0 changes nothing.
func TestPropZeroDeltaNeverDetected(t *testing.T) {
	e := newS27Engine(t)
	n := len(e.C.Sources())
	rng := rand.New(rand.NewSource(8))
	f := func() bool {
		p := Pattern{V1: make([]bool, n), V2: make([]bool, n)}
		for i := 0; i < n; i++ {
			p.V1[i] = rng.Intn(2) == 0
			p.V2[i] = rng.Intn(2) == 0
		}
		base, err := e.Baseline(p)
		if err != nil {
			return false
		}
		id := e.C.Topo()[rng.Intn(len(e.C.Topo()))]
		return len(e.FaultSim(base, Injection{Gate: id, Pin: -1, Rising: true, Delta: 0}, 5000)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestPropMonotoneDelta: a larger fault is detected whenever a smaller one
// is, at at least as many taps with at least as much total detection
// measure (for faults on the same single-path site).
func TestPropLargerDeltaWiderDetection(t *testing.T) {
	c := circuit.New("chain4")
	pi := c.AddGate("pi", circuit.Input)
	n1 := c.AddGate("n1", circuit.Not, pi)
	n2 := c.AddGate("n2", circuit.Buf, n1)
	c.MarkOutput(n2)
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(c, cell.Annotate(c, cell.NanGate45()))
	base, _ := e.Baseline(Pattern{V1: []bool{false}, V2: []bool{true}})
	var prev tunit.Time
	for _, delta := range []tunit.Time{10, 20, 40, 80} {
		dets := e.FaultSim(base, Injection{Gate: n1, Pin: -1, Rising: false, Delta: delta}, 100000)
		if len(dets) != 1 {
			t.Fatalf("delta %d: detections = %v", delta, dets)
		}
		m := dets[0].Diff.Measure()
		if m < prev {
			t.Fatalf("detection measure shrank: %d after %d", m, prev)
		}
		prev = m
	}
}

func TestInjectionString(t *testing.T) {
	if (Injection{Gate: 3, Pin: -1, Rising: true, Delta: 30}).String() == "" {
		t.Fatal("empty String")
	}
	if (Injection{Gate: 3, Pin: 1, Rising: false, Delta: 30}).String() == "" {
		t.Fatal("empty String")
	}
}

func TestEngineTaps(t *testing.T) {
	e := newS27Engine(t)
	if len(e.Taps()) != 4 {
		t.Fatalf("taps = %d", len(e.Taps()))
	}
}

// randPattern draws a random launch/capture pair for e's circuit.
func randPattern(e *Engine, rng *rand.Rand) Pattern {
	n := len(e.C.Sources())
	p := Pattern{V1: make([]bool, n), V2: make([]bool, n)}
	for i := 0; i < n; i++ {
		p.V1[i] = rng.Intn(2) == 0
		p.V2[i] = rng.Intn(2) == 0
	}
	return p
}

// TestScratchInterleavedSitesMatchFresh replays fault sites in an order
// that interleaves them, with runs of one site back to back, on a single
// Scratch. Every call's detections and Stats must equal those of a fresh
// Scratch for that call: the toggle arena and the dirty flags carry
// nothing from one simulation to the next.
func TestScratchInterleavedSitesMatchFresh(t *testing.T) {
	c := circuit.MustGenerate(circuit.GenSpec{Name: "il", Gates: 300, FFs: 24, Inputs: 10, Outputs: 8, Depth: 14, Seed: 3})
	lib := cell.NanGate45()
	e := NewEngine(c, cell.Annotate(c, lib))
	rng := rand.New(rand.NewSource(11))
	var bases [][]Waveform
	for i := 0; i < 4; i++ {
		b, err := e.Baseline(randPattern(e, rng))
		if err != nil {
			t.Fatal(err)
		}
		bases = append(bases, b)
	}
	var injs []Injection
	for _, id := range c.Topo() {
		for pin := -1; pin < len(c.Gates[id].Fanin); pin++ {
			injs = append(injs, Injection{Gate: id, Pin: pin, Rising: rng.Intn(2) == 0, Delta: lib.FaultSize()})
		}
	}
	horizon := tunit.Time(1 << 20)
	shared := e.NewScratch()
	var activated int
	for k := 0; k < 4000; k++ {
		inj := injs[rng.Intn(len(injs))]
		for run := 1 + rng.Intn(3); run > 0; run-- {
			base := bases[rng.Intn(len(bases))]
			var got, want Stats
			dGot := e.FaultSimScratch(base, inj, horizon, shared, &got)
			dWant := e.FaultSimScratch(base, inj, horizon, e.NewScratch(), &want)
			if got != want {
				t.Fatalf("call %d (%v): shared Scratch Stats %+v, fresh %+v", k, inj, got, want)
			}
			if len(dGot) != len(dWant) {
				t.Fatalf("call %d (%v): %d detections, fresh %d", k, inj, len(dGot), len(dWant))
			}
			for i := range dGot {
				if dGot[i].Tap != dWant[i].Tap || !dGot[i].Diff.Equal(dWant[i].Diff) {
					t.Fatalf("call %d (%v): detection %d = %v, fresh %v", k, inj, i, dGot[i], dWant[i])
				}
			}
			if got.EarlyExits == 0 {
				activated++
			}
		}
	}
	if activated == 0 {
		t.Fatal("no injection was activated: the test exercises nothing")
	}
}

// TestBaselineIntoRefillMatchesFresh refills one pooled buffer with
// different patterns: each fill must equal a freshly allocated baseline,
// although the arena is reused.
func TestBaselineIntoRefillMatchesFresh(t *testing.T) {
	c := circuit.MustGenerate(circuit.GenSpec{Name: "rf", Gates: 300, FFs: 24, Inputs: 10, Outputs: 8, Depth: 14, Seed: 4})
	e := NewEngine(c, cell.Annotate(c, cell.NanGate45()))
	rng := rand.New(rand.NewSource(2))
	b := e.AcquireBaseline()
	defer e.ReleaseBaseline(b)
	for i := 0; i < 8; i++ {
		p := randPattern(e, rng)
		if err := e.BaselineInto(context.Background(), p, b); err != nil {
			t.Fatal(err)
		}
		want, err := e.Baseline(p)
		if err != nil {
			t.Fatal(err)
		}
		for id := range want {
			if !b.W[id].Equal(want[id]) {
				t.Fatalf("fill %d, gate %d: %v, fresh %v", i, id, b.W[id], want[id])
			}
		}
	}
}
