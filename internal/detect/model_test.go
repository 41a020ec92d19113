package detect

import (
	"context"
	"testing"

	"fastmon/internal/cell"
	"fastmon/internal/circuit"
	"fastmon/internal/fault"
	"fastmon/internal/interval"
	"fastmon/internal/monitor"
	"fastmon/internal/sim"
	"fastmon/internal/sta"
	"fastmon/internal/tunit"
)

// The allocating range algebra the observation Model replaced. These
// constructions are the oracles of the model's tests: each allocates its
// unions, shifts and clips afresh, on the window [TMin, Clk+1).

// ffUnion returns the union of the flip-flop ranges over all patterns.
func ffUnion(fd *FaultData) interval.Set {
	var a interval.Accum
	for _, pr := range fd.Per {
		a.Add(pr.FF)
	}
	return a.Result()
}

// srUnion returns the union of the unshifted shadow-register ranges over
// all patterns.
func srUnion(fd *FaultData) interval.Set {
	var a interval.Accum
	for _, pr := range fd.Per {
		a.Add(pr.SR)
	}
	return a.Result()
}

// combined returns the full detection range
//
//	I(φ) = I_FF ∪ ⋃_{d∈C} (I_SR + d)
//
// clipped to the observation window [TMin, Clk].
func combined(fd *FaultData, cfg Config, delays []tunit.Time) interval.Set {
	lo, hi := cfg.TMin, cfg.Clk+1
	u := ffUnion(fd).Clip(lo, hi)
	sr := srUnion(fd)
	for _, d := range delays {
		u = u.Union(sr.Shift(d).Clip(lo, hi))
	}
	return u
}

// combinedAt returns the detection range of the fault under one pattern
// and monitor configuration (delay d; d < 0 means "flip-flops only"),
// clipped to the observation window.
func combinedAt(pr PatternRange, cfg Config, d tunit.Time) interval.Set {
	lo, hi := cfg.TMin, cfg.Clk+1
	u := pr.FF.Clip(lo, hi)
	if d >= 0 {
		u = u.Union(pr.SR.Shift(d).Clip(lo, hi))
	}
	return u
}

// combinedFree returns the detection range of the fault under one pattern
// when every monitor may select its own delay element independently.
func combinedFree(pr PatternRange, cfg Config, delays []tunit.Time) interval.Set {
	lo, hi := cfg.TMin, cfg.Clk+1
	u := pr.FF.Clip(lo, hi)
	for _, d := range delays {
		u = u.Union(pr.SR.Shift(d).Clip(lo, hi))
	}
	return u
}

// testbedData runs detection on the s27 testbed.
func testbedData(t *testing.T) ([]FaultData, *monitor.Placement, Config) {
	t.Helper()
	e, placement, cfg, faults, pats := testbed(t)
	data, err := Run(context.Background(), e, placement, faults, pats, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return data, placement, cfg
}

func TestObservationWindow(t *testing.T) {
	cfg := Config{Clk: 900, TMin: 300}
	m := cfg.Model([]tunit.Time{100})
	if m.Lo != 300 || m.Hi != 901 || len(m.Delays) != 1 {
		t.Fatalf("model = %+v, want the window 300..901 and one delay", m)
	}
}

// TestConfigs pins the configuration menu: flip-flops only without delay
// elements, the free configuration under the per-monitor extension, one
// configuration per delay element otherwise.
func TestConfigs(t *testing.T) {
	var none Model
	if got := none.Configs(false); len(got) != 1 || got[0] != ConfigOff {
		t.Fatalf("no delays: %v, want [ConfigOff]", got)
	}
	if got := none.Configs(true); len(got) != 1 || got[0] != ConfigOff {
		t.Fatalf("no delays, free: %v, want [ConfigOff]", got)
	}
	m := Model{Delays: []tunit.Time{10, 20, 30}}
	if got := m.Configs(true); len(got) != 1 || got[0] != ConfigFree {
		t.Fatalf("free: %v, want [ConfigFree]", got)
	}
	if got := m.Configs(false); len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Fatalf("shared: %v, want [0 1 2]", got)
	}
}

// TestCombinedShiftProperty checks Model.Ranges against the allocating
// construction: I(φ) = clip(FF) ∪ ⋃ clip(SR+d), more delays never shrink
// it, and without delays it is the clipped FF range.
func TestCombinedShiftProperty(t *testing.T) {
	data, placement, cfg := testbedData(t)
	lo, hi := cfg.TMin, cfg.Clk+1
	delays := placement.Delays
	ranges := cfg.Model(delays).Ranges(data)
	small := cfg.Model(delays[:1]).Ranges(data)
	ffOnly := cfg.Model(nil).Ranges(data)
	for fi := range data {
		fd := &data[fi]
		want := ffUnion(fd).Clip(lo, hi)
		sr := srUnion(fd)
		for _, d := range delays {
			want = want.Union(sr.Shift(d).Clip(lo, hi))
		}
		if !ranges[fi].Equal(want) || !ranges[fi].Equal(combined(fd, cfg, delays)) {
			t.Fatalf("fault %d: Ranges %v, combined %v", fi, ranges[fi], want)
		}
		if !small[fi].Subtract(ranges[fi]).Empty() {
			t.Fatalf("adding configs shrank the range for fault %d", fi)
		}
		if !ffOnly[fi].Equal(ffUnion(fd).Clip(lo, hi)) {
			t.Fatalf("nil delays wrong for fault %d", fi)
		}
	}
}

// TestCombinedAt checks the model's membership test against the
// allocating per-pattern constructions: Detects(pr, t, ci) holds exactly
// when combinedAt (combinedFree for ConfigFree) contains t, and inside the
// window it splits into the FF test and ViaMonitor. The probes are every
// range boundary, shifted by every delay, and their neighbours.
func TestCombinedAt(t *testing.T) {
	data, placement, cfg := testbedData(t)
	delays := placement.Delays
	m := cfg.Model(delays)
	configs := []int{ConfigOff, ConfigFree}
	for ci := range delays {
		configs = append(configs, ci)
	}
	checked := 0
	for fi := range data {
		for _, pr := range data[fi].Per {
			probes := []tunit.Time{m.Lo - 1, m.Lo, m.Hi - 1, m.Hi}
			for _, b := range pr.FF.AppendBoundaries(nil) {
				probes = append(probes, b-1, b)
			}
			for _, b := range pr.SR.AppendBoundaries(nil) {
				for _, d := range delays {
					probes = append(probes, b+d-1, b+d)
				}
			}
			for _, ci := range configs {
				var want interval.Set
				switch {
				case ci == ConfigFree:
					want = combinedFree(pr, cfg, delays)
				case ci >= 0:
					want = combinedAt(pr, cfg, delays[ci])
				default:
					want = combinedAt(pr, cfg, -1)
				}
				for _, at := range probes {
					got := m.Detects(pr, at, ci)
					if got != want.Contains(at) {
						t.Fatalf("fault %d pattern %d config %d at %s: Detects %v, combined range %v",
							fi, pr.Pattern, ci, at, got, want)
					}
					if in := at >= m.Lo && at < m.Hi; in && got != (pr.FF.Contains(at) || m.ViaMonitor(pr.SR, at, ci)) {
						t.Fatalf("fault %d pattern %d config %d at %s: Detects and the FF test with ViaMonitor disagree",
							fi, pr.Pattern, ci, at)
					}
					checked++
				}
			}
		}
	}
	if checked < 1000 {
		t.Fatalf("only %d membership probes checked", checked)
	}
}

// TestClassifyMatchesCombined checks the classification against the
// allocating constructions on every Fig. 3 window [clk/k, clk+1): conv is
// a non-empty clipped FF union, prop a non-empty combined range, and
// at-speed a shifted SR union holding the nominal period. At-speed
// implies prop.
func TestClassifyMatchesCombined(t *testing.T) {
	data, placement, cfg := testbedData(t)
	delays := placement.Delays
	seen := Class{}
	for _, k := range []float64{1, 1.4, 2, 3} {
		wcfg := cfg
		wcfg.TMin = cfg.Clk.Scale(1 / k)
		m := wcfg.Model(delays)
		for fi, c := range m.Classify(data) {
			fd := &data[fi]
			want := Class{
				Conv: !ffUnion(fd).Clip(m.Lo, m.Hi).Empty(),
				Prop: !combined(fd, wcfg, delays).Empty(),
			}
			for _, d := range delays {
				want.AtSpeed = want.AtSpeed || srUnion(fd).Shift(d).Contains(cfg.Clk)
			}
			if c != want {
				t.Fatalf("k=%g fault %d: class %+v, want %+v", k, fi, c, want)
			}
			if c.AtSpeed && !c.Prop {
				t.Fatalf("k=%g fault %d: at-speed but not prop", k, fi)
			}
			seen.Conv = seen.Conv || c.Conv
			seen.Prop = seen.Prop || c.Prop && !c.Conv
		}
	}
	if !seen.Conv || !seen.Prop {
		t.Fatalf("the windows never classified a fault conv (%v) or prop only (%v)", seen.Conv, seen.Prop)
	}
}

func TestMonitorShiftEnablesDetection(t *testing.T) {
	// A short chain observed only by a monitored FF: the fault effect sits
	// below TMin and becomes detectable only through the monitor delay.
	c := circuit.New("shortpath")
	pi := c.AddGate("pi", circuit.Input)
	b1 := c.AddGate("b1", circuit.Buf, pi)
	c.AddGate("ff0", circuit.DFF, b1)
	// A long dummy chain to stretch the nominal clock.
	prev := pi
	for i := 0; i < 20; i++ {
		prev = c.AddGate("inv"+string(rune('a'+i)), circuit.Not, prev)
	}
	c.AddGate("ff1", circuit.DFF, prev)
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	lib := cell.NanGate45()
	a := cell.Annotate(c, lib)
	r := sta.Analyze(c, a)
	clk := r.NominalClock(0.05)
	placement := monitor.Place(r, 1.0, monitor.StandardDelays(clk))
	e := sim.NewEngine(c, a)
	cfg := Config{Clk: clk, TMin: clk / 3, Delta: lib.FaultSize(), Glitch: lib.MinPulse()}

	fl := []fault.Fault{{Gate: b1, Pin: -1, Rising: true}}
	pats := []sim.Pattern{{V1: []bool{false, false, false}, V2: []bool{true, false, false}}}
	data, err := Run(context.Background(), e, placement, fl, pats, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(data[0].Per) == 0 {
		t.Fatal("fault not simulated as detectable at all")
	}
	m := cfg.Model(placement.Delays)
	if cl := m.Classify(data)[0]; cl.Conv || !cl.Prop {
		t.Fatalf("class %+v, want detectable through a monitor only", cl)
	}
	if ff := cfg.Model(nil).Ranges(data)[0]; !ff.Empty() {
		t.Fatalf("fault unexpectedly FF-detectable in window: %v", ff)
	}
	if comb := m.Ranges(data)[0]; comb.Empty() {
		t.Fatal("monitor shift failed to move the fault into the window")
	}
}
