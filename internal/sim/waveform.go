// Package sim implements timing-accurate gate-level simulation on signal
// waveforms — the CPU substitute for the GPU-accelerated small-delay fault
// simulator the paper uses [20]. A waveform is an initial logic value plus
// a strictly increasing list of toggle times; gate evaluation merges input
// events in time order, schedules output events after pin- and
// edge-specific delays, cancels overtaken events and applies inertial
// pulse filtering. Small delay faults are injected by delaying the rising
// or falling transitions of the waveform at the fault site and
// re-simulating only the fanout cone.
package sim

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"fastmon/internal/interval"
	"fastmon/internal/tunit"
)

// Waveform is a two-valued signal over time: value Init before T[0], then
// toggling at each time in T. T is strictly increasing.
type Waveform struct {
	Init bool
	T    []tunit.Time
}

// Const returns a constant waveform.
func Const(v bool) Waveform { return Waveform{Init: v} }

// Step returns a waveform with value v1 before t and v2 afterwards.
// If v1 == v2 the waveform is constant.
func Step(v1, v2 bool, t tunit.Time) Waveform {
	if v1 == v2 {
		return Const(v1)
	}
	return Waveform{Init: v1, T: []tunit.Time{t}}
}

// At returns the value of the waveform at time t (toggles take effect at
// their own time: w.At(T[i]) already reflects toggle i).
func (w Waveform) At(t tunit.Time) bool {
	// Number of toggles with time <= t.
	n := sort.Search(len(w.T), func(i int) bool { return w.T[i] > t })
	return w.Init != (n%2 == 1)
}

// Final returns the settled value after all toggles.
func (w Waveform) Final() bool {
	return w.Init != (len(w.T)%2 == 1)
}

// Toggles returns the number of transitions.
func (w Waveform) Toggles() int { return len(w.T) }

// LastToggle returns the time of the final transition, or 0 for constant
// waveforms.
func (w Waveform) LastToggle() tunit.Time {
	if len(w.T) == 0 {
		return 0
	}
	return w.T[len(w.T)-1]
}

// Equal reports whether two waveforms describe the same signal.
func (w Waveform) Equal(o Waveform) bool {
	if w.Init != o.Init || len(w.T) != len(o.T) {
		return false
	}
	for i := range w.T {
		if w.T[i] != o.T[i] {
			return false
		}
	}
	return true
}

func (w Waveform) String() string {
	var sb strings.Builder
	v := 0
	if w.Init {
		v = 1
	}
	fmt.Fprintf(&sb, "%d", v)
	for _, t := range w.T {
		v = 1 - v
		fmt.Fprintf(&sb, "@%s→%d", t, v)
	}
	return sb.String()
}

// FilterPulses removes pulses shorter than minPulse using the standard
// inertial-delay stack filter: a toggle arriving within minPulse of the
// previous one cancels it (the pulse is absorbed by the cell and never
// propagates). Cancellation cascades, so the result never contains a pulse
// shorter than minPulse. The result has its own toggle slice; the
// simulator's arenas filter in place with filterPulses.
func (w Waveform) FilterPulses(minPulse tunit.Time) Waveform {
	if minPulse <= 0 || len(w.T) < 2 {
		return w
	}
	return Waveform{Init: w.Init, T: filterPulses(slices.Clone(w.T), minPulse)}
}

// filterPulses applies the inertial filter of FilterPulses to ts in place
// and returns the surviving prefix. The write index never passes the read
// index, so each toggle is read before its slot is reused.
func filterPulses(ts []tunit.Time, minPulse tunit.Time) []tunit.Time {
	if minPulse <= 0 || len(ts) < 2 {
		return ts
	}
	n := 0
	for _, t := range ts {
		if n > 0 && t-ts[n-1] < minPulse {
			n--
			continue
		}
		ts[n] = t
		n++
	}
	return ts[:n]
}

// highIntervals converts the waveform to the set of times where it is 1,
// using ±Infinity sentinels for unbounded ends.
func (w Waveform) highIntervals() []interval.Interval {
	out := make([]interval.Interval, 0, len(w.T)/2+1)
	v := w.Init
	prev := -tunit.Infinity
	for _, t := range w.T {
		if v {
			out = append(out, interval.Interval{Lo: prev, Hi: t})
		}
		prev, v = t, !v
	}
	if v {
		out = append(out, interval.Interval{Lo: prev, Hi: tunit.Infinity})
	}
	return out
}

// fromHighIntervals rebuilds a waveform from a canonical high-interval set.
func fromHighIntervals(s interval.Set) Waveform {
	ivs := s.Intervals()
	w := Waveform{T: make([]tunit.Time, 0, 2*len(ivs))}
	for _, iv := range ivs {
		if iv.Lo == -tunit.Infinity {
			w.Init = true
		} else {
			w.T = append(w.T, iv.Lo)
		}
		if iv.Hi != tunit.Infinity {
			w.T = append(w.T, iv.Hi)
		}
	}
	return w
}

// DelayTransitions returns the waveform with every rising (if rising) or
// falling transition delayed by delta — the behavioural effect of a small
// delay fault of size delta at this site. Transitions that are overtaken
// by the opposite edge disappear (a short pulse is swallowed by the
// fault), matching the physical lumped-delay model.
//
// For delta > 0 (every physical fault) the shift runs in a single pass
// directly over the toggle list (appendDelayed); the fault simulator runs
// that pass into its scratch arena.
func (w Waveform) DelayTransitions(delta tunit.Time, rising bool) Waveform {
	if delta == 0 || len(w.T) == 0 {
		return w
	}
	if delta < 0 {
		// Left shifts can reorder intervals arbitrarily; keep the general
		// canonicalizing path for this (test-only) case.
		his := w.highIntervals()
		for k := range his {
			if rising {
				if his[k].Lo != -tunit.Infinity {
					his[k].Lo += delta
				}
			} else {
				if his[k].Hi != tunit.Infinity {
					his[k].Hi += delta
				}
			}
		}
		return fromHighIntervals(interval.New(his...))
	}
	out := w.appendDelayed(make([]tunit.Time, 0, len(w.T)), delta, rising)
	return Waveform{Init: w.Init, T: out}
}

// appendDelayed appends the toggles of w.DelayTransitions(delta, rising)
// to dst and returns the extended slice; the initial value is w.Init.
// delta must be positive.
func (w Waveform) appendDelayed(dst []tunit.Time, delta tunit.Time, rising bool) []tunit.Time {
	if len(w.T) == 0 {
		return dst
	}
	if rising {
		// Rising edges move right: a high interval [r, f) becomes
		// [r+delta, f) and disappears when overtaken. Gaps between highs
		// only grow, so intervals never merge and the toggle list stays
		// sorted.
		i := 0
		if w.Init {
			// Leading high starts at -Infinity: only its falling edge is
			// real and falling edges do not move.
			dst = append(dst, w.T[0])
			i = 1
		}
		for ; i < len(w.T); i += 2 {
			r := w.T[i] + delta
			if i+1 == len(w.T) {
				dst = append(dst, r) // stays high forever after the shift
				break
			}
			if f := w.T[i+1]; r < f {
				dst = append(dst, r, f)
			}
			// else the pulse is swallowed by the delayed rise
		}
		return dst
	}
	// Falling edges move right: a high interval [r, f) becomes
	// [r, f+delta) and may swallow following pulses. Merge stretched
	// intervals in one pass (lo <= curHi is exactly interval.New's
	// half-open adjacency rule).
	var curLo, curHi tunit.Time
	have, loInf := false, false
	i := 0
	if w.Init {
		curHi, have, loInf = w.T[0]+delta, true, true
		i = 1
	}
	for ; i < len(w.T); i += 2 {
		lo := w.T[i]
		hi := tunit.Infinity
		if i+1 < len(w.T) {
			hi = w.T[i+1] + delta
		}
		if have && lo <= curHi {
			if hi > curHi {
				curHi = hi
			}
			continue
		}
		if have {
			if !loInf {
				dst = append(dst, curLo)
			}
			dst = append(dst, curHi) // finite: an ∞ end only ends the walk
			loInf = false
		}
		curLo, curHi, have = lo, hi, true
	}
	if have {
		if !loInf {
			dst = append(dst, curLo)
		}
		if curHi != tunit.Infinity {
			dst = append(dst, curHi)
		}
	}
	return dst
}

// Diff returns the set of times where w and o carry different values,
// clipped to [0, horizon). This is the XOR of the fault-free and faulty
// output waveforms that defines the detection range of a fault at this
// output.
//
// The merge walk visits strictly increasing times (simultaneous toggles
// cancel), and every differing run is followed by a non-empty agreeing
// one, so the clipped runs come out sorted, non-empty and non-adjacent:
// the walk emits the canonical set directly.
func (w Waveform) Diff(o Waveform, horizon tunit.Time) interval.Set {
	differs := w.Init != o.Init
	var ivs []interval.Interval
	start := -tunit.Infinity
	i, j := 0, 0
	emit := func(end tunit.Time) {
		if lo, hi := max(start, 0), min(end, horizon); differs && lo < hi {
			ivs = append(ivs, interval.Interval{Lo: lo, Hi: hi})
		}
	}
	for i < len(w.T) || j < len(o.T) {
		var t tunit.Time
		switch {
		case j >= len(o.T) || (i < len(w.T) && w.T[i] < o.T[j]):
			t = w.T[i]
			i++
		case i >= len(w.T) || o.T[j] < w.T[i]:
			t = o.T[j]
			j++
		default: // simultaneous toggles cancel
			i++
			j++
			continue
		}
		emit(t)
		differs = !differs
		start = t
	}
	emit(tunit.Infinity)
	return interval.FromCanonical(ivs)
}
