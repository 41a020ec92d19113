// Package sta implements the static timing analysis used by the test flow:
// longest/shortest arrival times, the critical path length that defines the
// nominal clock (clk := 1.05·cpl), per-site structural slack for the
// at-speed-detectable and timing-redundant fault classification of flow
// step (1), and the long-path ranking of pseudo outputs that drives
// monitor placement.
package sta

import (
	"sort"

	"fastmon/internal/cell"
	"fastmon/internal/circuit"
	"fastmon/internal/tunit"
)

// Result holds the timing view of one annotated circuit.
type Result struct {
	c *circuit.Circuit
	a *cell.Annotation

	// MaxArrival[g] is the latest possible output transition time of gate
	// g (0 for primary inputs, clk-to-q for DFF outputs).
	MaxArrival []tunit.Time
	// MinArrival[g] is the earliest possible output transition time.
	MinArrival []tunit.Time
	// MaxToTap[g] is the longest combinational delay from the output of g
	// to any observation point (0 if g itself is observed). -1 when g
	// reaches no observation point.
	MaxToTap []tunit.Time
	// Taps are the observation points, TapArrival[i] the latest data
	// arrival at tap i including flip-flop setup for pseudo outputs.
	Taps       []circuit.Tap
	TapArrival []tunit.Time
	// CPL is the critical path length: the maximum TapArrival.
	CPL tunit.Time
}

// Analyze runs static timing analysis on the annotated circuit.
func Analyze(c *circuit.Circuit, a *cell.Annotation) *Result {
	n := len(c.Gates)
	r := &Result{
		c: c, a: a,
		MaxArrival: make([]tunit.Time, n),
		MinArrival: make([]tunit.Time, n),
		MaxToTap:   make([]tunit.Time, n),
		Taps:       c.Taps(),
	}
	lib := a.Lib

	// Forward pass: arrival times. Sources launch at t=0 (PIs) or after
	// the clock-to-output delay (scan FF outputs).
	for _, id := range c.Inputs {
		r.MaxArrival[id], r.MinArrival[id] = 0, 0
	}
	for _, id := range c.DFFs {
		r.MaxArrival[id], r.MinArrival[id] = lib.ClkToQ, lib.ClkToQ
	}
	for _, id := range c.Topo() {
		g := &c.Gates[id]
		var maxA tunit.Time
		minA := tunit.Infinity
		for p, f := range g.Fanin {
			e := a.PinDelay(id, p)
			if t := r.MaxArrival[f] + e.Max(); t > maxA {
				maxA = t
			}
			if t := r.MinArrival[f] + e.Min(); t < minA {
				minA = t
			}
		}
		r.MaxArrival[id], r.MinArrival[id] = maxA, minA
	}

	// Tap arrivals and critical path. Pseudo outputs must additionally
	// satisfy the flip-flop setup time.
	r.TapArrival = make([]tunit.Time, len(r.Taps))
	for i, tap := range r.Taps {
		t := r.MaxArrival[tap.Gate]
		if tap.IsPseudo() {
			t += lib.Setup
		}
		r.TapArrival[i] = t
		if t > r.CPL {
			r.CPL = t
		}
	}

	// Backward pass: longest delay from each gate output to an observation
	// point. Observed gates start at 0 (plus setup when observed by a FF).
	for i := range r.MaxToTap {
		r.MaxToTap[i] = -1
	}
	for i, tap := range r.Taps {
		var base tunit.Time
		if tap.IsPseudo() {
			base = lib.Setup
		}
		_ = i
		if base > r.MaxToTap[tap.Gate] {
			r.MaxToTap[tap.Gate] = base
		}
	}
	topo := c.Topo()
	for i := len(topo) - 1; i >= 0; i-- {
		id := topo[i]
		g := &c.Gates[id]
		best := r.MaxToTap[id]
		for _, fo := range g.Fanout {
			fg := &c.Gates[fo]
			if fg.Kind == circuit.DFF {
				continue // already covered via the tap of that DFF
			}
			if r.MaxToTap[fo] < 0 {
				continue
			}
			pin := pinIndexOf(fg, id)
			e := a.PinDelay(fo, pin)
			if t := r.MaxToTap[fo] + e.Max(); t > best {
				best = t
			}
		}
		r.MaxToTap[id] = best
	}
	// Sources too (useful for fault sites on source outputs).
	for _, id := range append(append([]int{}, c.Inputs...), c.DFFs...) {
		best := r.MaxToTap[id]
		for _, fo := range c.Gates[id].Fanout {
			fg := &c.Gates[fo]
			if fg.Kind == circuit.DFF {
				continue
			}
			if r.MaxToTap[fo] < 0 {
				continue
			}
			pin := pinIndexOf(fg, id)
			e := a.PinDelay(fo, pin)
			if t := r.MaxToTap[fo] + e.Max(); t > best {
				best = t
			}
		}
		r.MaxToTap[id] = best
	}
	return r
}

// pinIndexOf returns the first input pin of g that is driven by src.
func pinIndexOf(g *circuit.Gate, src int) int {
	for p, f := range g.Fanin {
		if f == src {
			return p
		}
	}
	panic("sta: fanout inconsistency")
}

// NominalClock returns the paper's nominal clock period
// clk := (1+margin)·cpl, e.g. margin 0.05.
func (r *Result) NominalClock(margin float64) tunit.Time {
	return r.CPL.Scale(1 + margin)
}

// LongestThrough returns the length of the longest observable path through
// the output of gate g, or -1 if g reaches no observation point.
func (r *Result) LongestThrough(g int) tunit.Time {
	if r.MaxToTap[g] < 0 {
		return -1
	}
	return r.MaxArrival[g] + r.MaxToTap[g]
}

// RankTapsByLength returns the tap indices sorted by decreasing data
// arrival time — "long path ends" first. Pseudo-only restricts the ranking
// to pseudo primary outputs, which is where the paper places monitors.
func (r *Result) RankTapsByLength(pseudoOnly bool) []int {
	idx := make([]int, 0, len(r.Taps))
	for i, tap := range r.Taps {
		if pseudoOnly && !tap.IsPseudo() {
			continue
		}
		idx = append(idx, i)
	}
	sort.SliceStable(idx, func(a, b int) bool {
		if r.TapArrival[idx[a]] != r.TapArrival[idx[b]] {
			return r.TapArrival[idx[a]] > r.TapArrival[idx[b]]
		}
		return idx[a] < idx[b]
	})
	return idx
}
