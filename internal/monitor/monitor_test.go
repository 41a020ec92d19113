package monitor

import (
	"testing"

	"fastmon/internal/cell"
	"fastmon/internal/circuit"
	"fastmon/internal/sim"
	"fastmon/internal/sta"
	"fastmon/internal/tunit"
)

func TestStandardDelays(t *testing.T) {
	clk := tunit.Time(1200)
	d := StandardDelays(clk)
	want := []tunit.Time{60, 120, 180, 400}
	if len(d) != 4 {
		t.Fatalf("delays = %v", d)
	}
	for i := range d {
		if d[i] != want[i] {
			t.Fatalf("delays = %v, want %v", d, want)
		}
	}
}

func TestPlace(t *testing.T) {
	c := circuit.MustGenerate(circuit.GenSpec{Name: "g", Gates: 300, FFs: 40, Inputs: 10, Outputs: 8, Depth: 14, Seed: 2})
	a := cell.Annotate(c, cell.NanGate45())
	r := sta.Analyze(c, a)
	clk := r.NominalClock(0.05)
	p := Place(r, 0.25, StandardDelays(clk))
	if p.NumMonitors() != 10 { // 25% of 40 FFs
		t.Fatalf("monitors = %d, want 10", p.NumMonitors())
	}
	if p.NumConfigs() != 4 {
		t.Fatalf("configs = %d", p.NumConfigs())
	}
	if p.MaxDelay() != clk.Scale(1.0/3.0) {
		t.Fatalf("MaxDelay = %d", p.MaxDelay())
	}
	// Monitors must sit on pseudo outputs only, and on the longest ones.
	taps := c.Taps()
	minMonitored := tunit.Infinity
	for _, ti := range p.Taps {
		if !taps[ti].IsPseudo() {
			t.Fatal("monitor on a primary output")
		}
		if !p.Covers(ti) {
			t.Fatal("Covers inconsistent")
		}
		if r.TapArrival[ti] < minMonitored {
			minMonitored = r.TapArrival[ti]
		}
	}
	// No unmonitored pseudo output may be strictly longer than every
	// monitored one.
	for ti, tap := range taps {
		if tap.IsPseudo() && !p.Covers(ti) && r.TapArrival[ti] > minMonitored {
			// Ties allowed; strict violation is a placement bug.
			for _, mi := range p.Taps {
				if r.TapArrival[mi] < r.TapArrival[ti] {
					t.Fatalf("long path end %d unmonitored while %d monitored", ti, mi)
				}
			}
		}
	}
	if p.String() == "" {
		t.Fatal("empty String")
	}
}

func TestPlaceFractionBounds(t *testing.T) {
	c := circuit.MustParseBench("s27", circuit.S27)
	a := cell.Annotate(c, cell.NanGate45())
	r := sta.Analyze(c, a)
	if got := Place(r, 2.0, nil).NumMonitors(); got != 3 {
		t.Fatalf("fraction > 1 monitors = %d, want all 3", got)
	}
	if got := Place(r, 0, nil).NumMonitors(); got != 0 {
		t.Fatalf("fraction 0 monitors = %d", got)
	}
	if Place(r, 0, nil).MaxDelay() != 0 {
		t.Fatal("no delays must give MaxDelay 0")
	}
}

func TestAlertFig2(t *testing.T) {
	clk := tunit.Time(1000)
	large := tunit.Time(300) // Delay1: wide guard band
	small := tunit.Time(80)  // Delay4: narrow guard band

	// Fig. 2 (b): healthy signal settles early — no alert.
	healthy := sim.Waveform{Init: false, T: []tunit.Time{500}}
	if Alert(healthy, clk, large) {
		t.Fatal("healthy signal must not alert")
	}
	// Degraded by δ1: toggles inside the wide window — alert.
	degraded := sim.Waveform{Init: false, T: []tunit.Time{850}}
	if !Alert(degraded, clk, large) {
		t.Fatal("degraded signal must alert with the large delay element")
	}
	// Fig. 2 (c): after reconfiguration to the small delay the same
	// signal has slack again — no alert.
	if Alert(degraded, clk, small) {
		t.Fatal("degraded signal must not alert with the small delay element")
	}
	// Further degradation violates even the narrow window.
	degraded2 := sim.Waveform{Init: false, T: []tunit.Time{960}}
	if !Alert(degraded2, clk, small) {
		t.Fatal("further degraded signal must alert again")
	}
}

func TestAlertDoubleToggleInvisible(t *testing.T) {
	clk := tunit.Time(1000)
	d := tunit.Time(200)
	// Two toggles inside the guard band restore the value: XOR sees
	// nothing — faithful to the hardware comparator.
	w := sim.Waveform{Init: false, T: []tunit.Time{850, 900}}
	if Alert(w, clk, d) {
		t.Fatal("double toggle must be invisible to the XOR")
	}
}

func TestGuardBand(t *testing.T) {
	clk := tunit.Time(1000)
	d := tunit.Time(300)
	lo, hi := GuardBand(clk, d)
	if lo != 700 || hi != 1000 {
		t.Fatalf("guard band = %d..%d", lo, hi)
	}
}

func TestSlackToAlert(t *testing.T) {
	clk := tunit.Time(1000)
	d := tunit.Time(300)
	w := sim.Waveform{Init: false, T: []tunit.Time{500}}
	// Last toggle at 500; window starts at 700: headroom 201.
	if got := SlackToAlert(w, clk, d); got != 201 {
		t.Fatalf("SlackToAlert = %d", got)
	}
	if got := SlackToAlert(sim.Const(true), clk, d); got != tunit.Infinity {
		t.Fatalf("constant waveform = %d", got)
	}
	alerting := sim.Waveform{Init: false, T: []tunit.Time{800}}
	if got := SlackToAlert(alerting, clk, d); got != 0 {
		t.Fatalf("alerting waveform = %d", got)
	}
	double := sim.Waveform{Init: false, T: []tunit.Time{850, 900}}
	if got := SlackToAlert(double, clk, d); got != 0 {
		t.Fatalf("double toggle inside window = %d", got)
	}
}

func TestOverheadGE(t *testing.T) {
	c := circuit.MustGenerate(circuit.GenSpec{Name: "g", Gates: 400, FFs: 40, Inputs: 10, Outputs: 8, Depth: 14, Seed: 2})
	a := cell.Annotate(c, cell.NanGate45())
	r := sta.Analyze(c, a)
	clk := r.NominalClock(0.05)

	empty := Place(r, 0, nil)
	if empty.OverheadGE() != 0 || empty.RelativeOverhead(c) != 0 {
		t.Fatal("empty placement must cost nothing")
	}

	quarter := Place(r, 0.25, StandardDelays(clk))
	half := Place(r, 0.5, StandardDelays(clk))
	if quarter.OverheadGE() <= 0 {
		t.Fatal("placement cost must be positive")
	}
	// Cost scales with monitor count.
	if half.OverheadGE() <= quarter.OverheadGE() {
		t.Fatal("more monitors must cost more")
	}
	// Per-monitor cost: FF(6) + XOR(2.5) + 4 delays(8) + mux(5) + OR(1) = 22.5.
	want := float64(quarter.NumMonitors()) * 22.5
	if got := quarter.OverheadGE(); got != want {
		t.Fatalf("OverheadGE = %f, want %f", got, want)
	}
	// 25% monitors on a 400-gate/40-FF circuit: a few percent overhead,
	// the ballpark in-situ monitor insertion reports.
	rel := quarter.RelativeOverhead(c)
	if rel <= 0.01 || rel >= 0.5 {
		t.Fatalf("RelativeOverhead = %f out of plausible range", rel)
	}
	// A single-element (non-programmable) monitor is cheaper than the
	// programmable one: no mux, fewer delay elements.
	fixed := Place(r, 0.25, StandardDelays(clk)[3:])
	if fixed.OverheadGE() >= quarter.OverheadGE() {
		t.Fatal("fixed monitor must be cheaper than programmable")
	}
}
