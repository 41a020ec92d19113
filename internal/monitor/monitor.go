// Package monitor models the programmable delay monitors of the paper
// (Fig. 2): a standard flip-flop extended with a shadow register that
// samples the data signal through a configurable delay element, plus an
// XOR comparator that raises an aging alert when the two captures differ.
//
// For aging prediction the monitor checks signal stability inside the
// guard band (clk-d, clk]. For hidden-delay-fault testing the same shadow
// register gives a second observation of the output whose detection range
// is the flip-flop's shifted right by the configured delay:
// I_SR(φ,o) = I_FF(φ,o) + d.
package monitor

import (
	"fmt"
	"sort"

	"fastmon/internal/circuit"
	"fastmon/internal/sim"
	"fastmon/internal/sta"
	"fastmon/internal/tunit"
)

// Placement describes the monitors inserted into a circuit and their
// programmable delay elements. All monitors share the same delay setting
// at any time (paper, Sec. IV-B), so a configuration is simply an index
// into Delays.
type Placement struct {
	// Taps lists the observation points (tap indices) that carry a
	// monitor, sorted ascending.
	Taps []int
	// Delays holds the configurable delay elements, ascending. The paper
	// uses d ∈ {0.05, 0.10, 0.15, ⅓}·clk.
	Delays []tunit.Time

	covered map[int]bool
}

// StandardDelays returns the paper's four delay elements for a nominal
// clock period.
func StandardDelays(clk tunit.Time) []tunit.Time {
	return []tunit.Time{
		clk.Scale(0.05),
		clk.Scale(0.10),
		clk.Scale(0.15),
		clk.Scale(1.0 / 3.0),
	}
}

// Place inserts monitors at long path ends: the given fraction of pseudo
// primary outputs (scan flip-flops), ranked by decreasing data arrival
// time, receives a monitor — the placement strategy of [25] adopted by the
// evaluation (25 % of pseudo outputs).
func Place(r *sta.Result, fraction float64, delays []tunit.Time) *Placement {
	ranked := r.RankTapsByLength(true)
	n := int(float64(len(ranked))*fraction + 0.5)
	if n > len(ranked) {
		n = len(ranked)
	}
	taps := append([]int(nil), ranked[:n]...)
	sort.Ints(taps)
	ds := append([]tunit.Time(nil), delays...)
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	p := &Placement{Taps: taps, Delays: ds, covered: map[int]bool{}}
	for _, t := range taps {
		p.covered[t] = true
	}
	return p
}

// Covers reports whether tap index t carries a monitor.
func (p *Placement) Covers(t int) bool { return p.covered[t] }

// NumMonitors returns |M| (Table I column 5).
func (p *Placement) NumMonitors() int { return len(p.Taps) }

// NumConfigs returns |C|, the number of shared delay configurations.
func (p *Placement) NumConfigs() int { return len(p.Delays) }

// MaxDelay returns the largest configurable delay (⅓·clk in the paper),
// which bounds how far fault effects can be shifted toward the observable
// range.
func (p *Placement) MaxDelay() tunit.Time {
	if len(p.Delays) == 0 {
		return 0
	}
	return p.Delays[len(p.Delays)-1]
}

func (p *Placement) String() string {
	return fmt.Sprintf("%d monitors, %d delay configs (max %s)",
		len(p.Taps), len(p.Delays), p.MaxDelay())
}

// Alert reports whether a monitor with delay element d raises an aging
// alert when capturing the data waveform w with clock period clk: the
// standard flip-flop samples w at clk, the shadow register samples the
// delayed signal — equivalently w at clk-d — and the XOR of the two
// captures is the alert (Fig. 2 b–d). A toggle inside the guard band
// (clk-d, clk] that leaves the value unchanged is invisible to the XOR,
// exactly as in the hardware.
func Alert(w sim.Waveform, clk, d tunit.Time) bool {
	return w.At(clk) != w.At(clk-d)
}

// ShadowCapture returns the value captured by the shadow register for
// clock period clk under delay d.
func ShadowCapture(w sim.Waveform, clk, d tunit.Time) bool {
	return w.At(clk - d)
}

// GuardBand returns the stability-checking window (clk-d, clk] monitored
// under configuration d.
func GuardBand(clk, d tunit.Time) (lo, hi tunit.Time) { return clk - d, clk }

// SlackToAlert returns how much additional delay the latest transition of
// w can absorb before an alert is raised at period clk with delay d — the
// remaining "aging headroom" the monitor measures. A waveform already
// alerting returns 0; a constant waveform returns Infinity.
func SlackToAlert(w sim.Waveform, clk, d tunit.Time) tunit.Time {
	if Alert(w, clk, d) {
		return 0
	}
	if w.Toggles() == 0 {
		return tunit.Infinity
	}
	last := w.LastToggle()
	lo, _ := GuardBand(clk, d)
	if last > lo {
		// The final transition is already inside the guard band but the
		// XOR missed it (double toggle); treat as exhausted headroom.
		return 0
	}
	return lo - last + 1
}

// Gate-equivalent costs of the monitor building blocks (Fig. 2a), in the
// usual NAND2-equivalent accounting: a scannable shadow flip-flop, the
// XOR comparator, one delay element, and the configuration multiplexer.
// The related work the paper builds on ([13]) optimizes exactly this
// hardware penalty; the model makes the cost of a placement explicit.
const (
	geShadowFF     = 6.0
	geXOR          = 2.5
	geDelayElement = 2.0
	geConfigMux4   = 5.0
	geAlertOR      = 1.0 // per monitor, for the alert aggregation tree
)

// OverheadGE estimates the silicon cost of the placement in NAND2 gate
// equivalents: every monitor carries a shadow register, an XOR, the
// configured delay elements and a selection multiplexer sized for them,
// plus its share of the alert OR-tree.
func (p *Placement) OverheadGE() float64 {
	if len(p.Taps) == 0 {
		return 0
	}
	perMonitor := geShadowFF + geXOR + float64(len(p.Delays))*geDelayElement + geAlertOR
	if len(p.Delays) > 1 {
		// One 4:1 mux per 4 delay elements (rounded up).
		muxes := (len(p.Delays) + 3) / 4
		perMonitor += float64(muxes) * geConfigMux4
	}
	return float64(len(p.Taps)) * perMonitor
}

// RelativeOverhead returns the placement cost as a fraction of the
// circuit's combinational gate count (both in gate equivalents,
// approximating every combinational cell as ~1.5 GE on average).
func (p *Placement) RelativeOverhead(c *circuit.Circuit) float64 {
	gates := float64(c.NumGates()) * 1.5
	ffs := float64(c.NumFFs()) * geShadowFF
	total := gates + ffs
	if total <= 0 {
		return 0
	}
	return p.OverheadGE() / total
}
