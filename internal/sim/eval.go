package sim

import (
	"fastmon/internal/cell"
	"fastmon/internal/circuit"
	"fastmon/internal/tunit"
)

// stackPins is the arity up to which evalGate keeps its per-pin cursors in
// a stack buffer; wider gates (parsed netlists only: generated circuits
// stay at four inputs) fall back to the heap.
const stackPins = 8

// EvalGate computes the output waveform of a gate from its input waveforms
// and per-pin rise/fall delays. Input events are merged in time order; each
// change of the gate function schedules an output event after the delay of
// the toggling pin (for the resulting output edge); an event with an
// earlier effective time cancels previously scheduled later events (the
// classic waveform-cancellation rule); finally pulses shorter than
// minPulse are filtered inertially.
//
// delays[p] is the pin-to-output delay for input pin p; Rise/Fall refer to
// the *output* transition direction.
//
// EvalGate returns a waveform with its own toggle slice. The engines'
// hot paths call evalGate, the same algorithm, with an arena.
func EvalGate(kind circuit.Kind, inputs []Waveform, delays []cell.Edge, minPulse tunit.Time) Waveform {
	w, _ := evalGate(kind, inputs, delays, minPulse, nil)
	return w
}

// evalGate is EvalGate writing the output toggles to the end of a
// caller-owned arena. It returns the waveform and the extended arena. The
// waveform's toggle slice is capacity-capped, so later appends to the
// arena never write into it; toggles before len(arena) on entry are left
// untouched.
//
// The gate function is read from the arity and a running count of
// 1-inputs (circuit.Kind.EvalCount). A gate with one toggling pin (about
// half the calls of a fault-simulation sweep) walks that pin's toggles
// directly: the other pins are fixed, so either every toggle flips the
// output or none does, and the merge's per-event scan of all pins and
// gate evaluation are skipped. Otherwise the pins' toggle lists are
// merged in time order.
func evalGate(kind circuit.Kind, inputs []Waveform, delays []cell.Edge, minPulse tunit.Time, arena []tunit.Time) (Waveform, []tunit.Time) {
	n := len(inputs)
	ones, active, nActive := 0, 0, 0
	for i := range inputs {
		if inputs[i].Init {
			ones++
		}
		if len(inputs[i].T) > 0 {
			active = i
			nActive++
		}
	}
	initOut := kind.EvalCount(n, ones)
	if nActive == 0 {
		return Waveform{Init: initOut}, arena
	}

	// The scheduled output toggles grow at the end of the arena; out is the
	// output value after the last of them.
	start := len(arena)
	out := initOut
	// schedule applies one input event: the gate function becomes newOut,
	// acting at eff. An event at or before a scheduled one overtakes it
	// (waveform cancellation). This also lets a faster pin re-confirm the
	// same output value earlier (e.g. the second rising input of an OR
	// gate).
	schedule := func(eff tunit.Time, newOut bool) {
		for len(arena) > start && arena[len(arena)-1] >= eff {
			arena = arena[:len(arena)-1]
			out = !out
		}
		if newOut != out {
			arena = append(arena, eff)
			out = newOut
		}
	}

	if nActive == 1 {
		w, d := &inputs[active], delays[active]
		flipped := ones + 1 // 1-inputs once the pin has toggled
		if w.Init {
			flipped = ones - 1
		}
		if kind.EvalCount(n, flipped) != initOut {
			// The other pins sensitize the toggling one: every toggle flips
			// the gate function. (A controlled pin never changes the output,
			// and nothing is scheduled.)
			newOut := initOut
			for _, t := range w.T {
				newOut = !newOut
				eff := t + d.Fall
				if newOut {
					eff = t + d.Rise
				}
				schedule(eff, newOut)
			}
		}
	} else {
		var posBuf [stackPins]int
		pos := posBuf[:]
		if n > stackPins {
			pos = make([]int, n)
		}
		for {
			// Next event time over all inputs.
			t := tunit.Infinity
			for i := range inputs {
				if p := pos[i]; p < len(inputs[i].T) && inputs[i].T[p] < t {
					t = inputs[i].T[p]
				}
			}
			if t == tunit.Infinity {
				break
			}
			// Toggle every pin with an event at t; the output edge acts
			// after the fastest of their delays for its direction.
			rise, fall := tunit.Infinity, tunit.Infinity
			for i := range inputs {
				w := &inputs[i]
				if p := pos[i]; p < len(w.T) && w.T[p] == t {
					pos[i]++
					if w.Init != (p&1 == 1) { // pin was 1 before this toggle
						ones--
					} else {
						ones++
					}
					rise, fall = min(rise, delays[i].Rise), min(fall, delays[i].Fall)
				}
			}
			newOut, eff := kind.EvalCount(n, ones), t+fall
			if newOut {
				eff = t + rise
			}
			schedule(eff, newOut)
		}
	}
	return seal(initOut, arena, start, minPulse)
}

// seal filters the toggles arena[start:] inertially in place and returns
// them as a waveform whose slice capacity ends at its length, with the
// arena cut back to just after them.
func seal(init bool, arena []tunit.Time, start int, minPulse tunit.Time) (Waveform, []tunit.Time) {
	end := start + len(filterPulses(arena[start:], minPulse))
	if end == start {
		return Waveform{Init: init}, arena[:start]
	}
	return Waveform{Init: init, T: arena[start:end:end]}, arena[:end]
}
