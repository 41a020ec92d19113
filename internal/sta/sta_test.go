package sta

import (
	"testing"

	"fastmon/internal/cell"
	"fastmon/internal/circuit"
)

// chain builds pi -> not -> not -> ... (n inverters) -> DFF.
func chain(t *testing.T, n int) (*circuit.Circuit, *cell.Annotation) {
	t.Helper()
	c := circuit.New("chain")
	prev := c.AddGate("pi0", circuit.Input)
	for i := 0; i < n; i++ {
		prev = c.AddGate("n"+string(rune('a'+i)), circuit.Not, prev)
	}
	c.AddGate("ff0", circuit.DFF, prev)
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	return c, cell.Annotate(c, cell.NanGate45())
}

func TestAnalyzeChain(t *testing.T) {
	c, a := chain(t, 3)
	r := Analyze(c, a)
	lib := a.Lib
	inv := lib.Base[circuit.Not] // single fanout each, pin 0
	// Max arrival at last inverter: 3 inverter delays (rise is max edge).
	last, _ := c.GateID("nc")
	if got := r.MaxArrival[last]; got != 3*inv {
		t.Fatalf("MaxArrival = %d, want %d", got, 3*inv)
	}
	// Min arrival uses the faster falling edge.
	fall := inv.Scale(lib.FallSkew)
	if got := r.MinArrival[last]; got != 3*fall {
		t.Fatalf("MinArrival = %d, want %d", got, 3*fall)
	}
	// CPL includes FF setup.
	if r.CPL != 3*inv+lib.Setup {
		t.Fatalf("CPL = %d, want %d", r.CPL, 3*inv+lib.Setup)
	}
	if got := r.NominalClock(0.05); got != r.CPL.Scale(1.05) {
		t.Fatalf("NominalClock = %d", got)
	}
}

func TestDFFLaunchOffset(t *testing.T) {
	// ff -> inverter -> ff: arrival includes clk-to-q.
	c := circuit.New("ffloop")
	ff := c.AddGate("ff0", circuit.DFF)
	inv := c.AddGate("inv", circuit.Not, ff)
	c.Gates[ff].Fanin = []int{inv}
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	a := cell.Annotate(c, cell.NanGate45())
	r := Analyze(c, a)
	lib := a.Lib
	want := lib.ClkToQ + lib.Base[circuit.Not]
	if r.MaxArrival[inv] != want {
		t.Fatalf("MaxArrival = %d, want %d", r.MaxArrival[inv], want)
	}
}

func TestMaxToTapAndSlack(t *testing.T) {
	c, a := chain(t, 3)
	r := Analyze(c, a)
	lib := a.Lib
	inv := lib.Base[circuit.Not]
	na, _ := c.GateID("na")
	// From the first inverter's output: 2 inverters + setup to the tap.
	want := 2*inv + lib.Setup
	if got := r.MaxToTap[na]; got != want {
		t.Fatalf("MaxToTap = %d, want %d", got, want)
	}
	if got := r.LongestThrough(na); got != inv+want {
		t.Fatalf("LongestThrough = %d, want %d", got, inv+want)
	}
	// The last gate before the tap sees the full path too.
	nc, _ := c.GateID("nc")
	if r.LongestThrough(nc) != r.CPL {
		t.Fatalf("LongestThrough(last) = %d, want CPL %d", r.LongestThrough(nc), r.CPL)
	}
}

func TestUnobservableGate(t *testing.T) {
	// A gate with no path to any output: MaxToTap = -1, infinite slack.
	c := circuit.New("dangling")
	a0 := c.AddGate("a", circuit.Input)
	g1 := c.AddGate("g1", circuit.Not, a0)
	g2 := c.AddGate("g2", circuit.Not, a0)
	_ = g1
	c.MarkOutput(g2)
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	r := Analyze(c, cell.Annotate(c, cell.NanGate45()))
	if r.MaxToTap[g1] != -1 {
		t.Fatalf("MaxToTap dangling = %d, want -1", r.MaxToTap[g1])
	}
	if r.LongestThrough(g1) != -1 {
		t.Fatal("LongestThrough dangling must be -1")
	}
}

func TestS27Analysis(t *testing.T) {
	c := circuit.MustParseBench("s27", circuit.S27)
	a := cell.Annotate(c, cell.NanGate45())
	r := Analyze(c, a)
	if r.CPL <= 0 {
		t.Fatal("CPL must be positive")
	}
	clk := r.NominalClock(0.05)
	// Every tap must have non-negative slack at the nominal clock.
	for i := range r.Taps {
		if clk-r.TapArrival[i] < 0 {
			t.Fatalf("tap %s has negative slack at nominal clock", r.Taps[i].Name)
		}
	}
	// Arrival bounds: min <= max everywhere.
	for id := range c.Gates {
		if r.MinArrival[id] > r.MaxArrival[id] {
			t.Fatalf("gate %s: MinArrival %d > MaxArrival %d", c.Gates[id].Name, r.MinArrival[id], r.MaxArrival[id])
		}
	}
	// Every gate in s27 is observable.
	for _, id := range c.Topo() {
		if r.MaxToTap[id] < 0 {
			t.Fatalf("gate %s unobservable", c.Gates[id].Name)
		}
	}
}

func TestRankTapsByLength(t *testing.T) {
	c := circuit.MustParseBench("s27", circuit.S27)
	a := cell.Annotate(c, cell.NanGate45())
	r := Analyze(c, a)
	all := r.RankTapsByLength(false)
	if len(all) != len(r.Taps) {
		t.Fatalf("rank covers %d of %d taps", len(all), len(r.Taps))
	}
	for i := 1; i < len(all); i++ {
		if r.TapArrival[all[i-1]] < r.TapArrival[all[i]] {
			t.Fatal("ranking not descending")
		}
	}
	pseudo := r.RankTapsByLength(true)
	if len(pseudo) != c.NumFFs() {
		t.Fatalf("pseudo rank has %d entries, want %d", len(pseudo), c.NumFFs())
	}
	for _, i := range pseudo {
		if !r.Taps[i].IsPseudo() {
			t.Fatal("pseudo-only ranking contains a primary output")
		}
	}
}

func TestGeneratedCircuitAnalysis(t *testing.T) {
	c := circuit.MustGenerate(circuit.GenSpec{Name: "g", Gates: 400, FFs: 30, Inputs: 12, Outputs: 8, Depth: 16, Seed: 5})
	a := cell.Annotate(c, cell.NanGate45())
	r := Analyze(c, a)
	if r.CPL <= 0 {
		t.Fatal("CPL must be positive")
	}
	// Arrival must be monotone along topological order edges.
	for _, id := range c.Topo() {
		for p, f := range c.Gates[id].Fanin {
			e := a.PinDelay(id, p)
			if r.MaxArrival[id] < r.MaxArrival[f]+e.Max() {
				t.Fatalf("max arrival not monotone at gate %d", id)
			}
		}
	}
	// MaxToTap consistency: LongestThrough of any gate never exceeds CPL.
	for _, id := range c.Topo() {
		if lt := r.LongestThrough(id); lt > r.CPL {
			t.Fatalf("LongestThrough %d > CPL %d", lt, r.CPL)
		}
	}
}
