package detect

import (
	"fastmon/internal/interval"
	"fastmon/internal/tunit"
)

// Model is the observation model of the paper's detection rule. A fault
// effect is caught at a capture time t of the window [Lo, Hi) when t lies
// in its flip-flop range I_FF, or, through a monitor with delay element d,
// when t − d lies in its shadow-register range (I_SR + d ∋ t). Every
// schedule, study and classification asks a Model instead of shifting,
// clipping and folding the raw ranges itself.
type Model struct {
	// Lo and Hi bound the admissible capture times [Lo, Hi).
	Lo, Hi tunit.Time
	// Delays are the monitors' delay elements; none means flip-flops only.
	Delays []tunit.Time
}

// Model returns the observation model of the flow's window [TMin, Clk+1),
// FAST frequencies between f_max and f_nom inclusive, with the given delay
// elements.
func (cfg Config) Model(delays []tunit.Time) Model {
	return Model{Lo: cfg.TMin, Hi: cfg.Clk + 1, Delays: delays}
}

// Monitor configurations besides an index into Model.Delays: ConfigOff
// uses the flip-flops only, and ConfigFree lets every monitor select its
// own delay element, the extension beyond the paper's shared setting
// (Sec. IV-B). ConfigFree is the optimistic model: per-monitor conflicts
// between faults needing different settings at the same monitor are
// ignored, so schedules built from it lower-bound the achievable test time.
const (
	ConfigOff  = -1
	ConfigFree = -2
)

// Configs returns the configuration menu of a schedule under the model:
// flip-flops only without delay elements, the one free configuration under
// the per-monitor extension, and otherwise one configuration per delay
// element (monitors are always engaged when available: a combo that
// ignores them is dominated by any delay setting).
func (m Model) Configs(free bool) []int {
	if len(m.Delays) == 0 {
		return []int{ConfigOff}
	}
	if free {
		return []int{ConfigFree}
	}
	configs := make([]int, len(m.Delays))
	for ci := range configs {
		configs[ci] = ci
	}
	return configs
}

// ViaMonitor is the monitor half of the rule: whether the shadow-register
// range sr catches its fault at t under configuration ci, t − d ∈ sr for
// the configuration's delay d, for any delay under ConfigFree, never under
// ConfigOff. ci must be ConfigOff, ConfigFree or an index into Delays.
func (m Model) ViaMonitor(sr interval.Set, t tunit.Time, ci int) bool {
	if ci >= 0 {
		return sr.Contains(t - m.Delays[ci])
	}
	if ci == ConfigFree {
		for _, d := range m.Delays {
			if sr.Contains(t - d) {
				return true
			}
		}
	}
	return false
}

// Detects reports whether the (pattern, configuration ci) pair of pr
// catches its fault at t: t lies in the window and in the pattern's FF
// range, or ViaMonitor holds.
func (m Model) Detects(pr PatternRange, t tunit.Time, ci int) bool {
	return t >= m.Lo && t < m.Hi && (pr.FF.Contains(t) || m.ViaMonitor(pr.SR, t, ci))
}

// folder folds a fault's per-pattern ranges into its FF and SR unions, in
// buffers reused across faults.
type folder struct{ ff, sr interval.Accum }

// fold returns the unions of fd's FF and unshifted SR ranges over all
// patterns. Both alias the folder's buffers until the next fold.
func (f *folder) fold(fd *FaultData) (ff, sr interval.Set) {
	f.ff.Reset()
	f.sr.Reset()
	for _, pr := range fd.Per {
		f.ff.Add(pr.FF)
		f.sr.Add(pr.SR)
	}
	return f.ff.Result(), f.sr.Result()
}

// Ranges returns every fault's full detection range
//
//	I(φ) = I_FF ∪ ⋃_{d∈Delays} (I_SR + d)
//
// clipped to the window. Shift and clip distribute over union, so each
// fault's patterns are folded once and the unions clipped and shifted
// once, all in reused buffers.
func (m Model) Ranges(data []FaultData) []interval.Set {
	out := make([]interval.Set, len(data))
	var f folder
	var all interval.Accum
	var scratch interval.Set
	for i := range data {
		ff, sr := f.fold(&data[i])
		all.Reset()
		ff.ClipInto(m.Lo, m.Hi, &scratch)
		all.Add(scratch)
		for _, d := range m.Delays {
			sr.ShiftClipInto(d, m.Lo, m.Hi, &scratch)
			all.Add(scratch)
		}
		out[i] = all.Copy()
	}
	return out
}

// Class is what the model says of one fault.
type Class struct {
	// Conv: the flip-flops catch the fault somewhere in the window.
	Conv bool
	// Prop: some configuration catches it somewhere in the window.
	Prop bool
	// AtSpeed: a monitor catches it at the nominal period Hi − 1, so no
	// FAST frequency is needed: Hi − 1 − d ∈ ⋃ I_SR for some delay d.
	// The nominal period lies in the window, so AtSpeed implies Prop.
	AtSpeed bool
}

// Classify returns the class of every fault, folding each fault's
// patterns once in buffers reused across faults.
func (m Model) Classify(data []FaultData) []Class {
	out := make([]Class, len(data))
	var f folder
	for i := range data {
		ff, sr := f.fold(&data[i])
		c := &out[i]
		c.Conv = ff.Overlaps(m.Lo, m.Hi)
		c.Prop = c.Conv
		for _, d := range m.Delays {
			c.Prop = c.Prop || sr.Overlaps(m.Lo-d, m.Hi-d)
			c.AtSpeed = c.AtSpeed || sr.Contains(m.Hi-1-d)
		}
	}
	return out
}
