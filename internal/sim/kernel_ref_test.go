package sim

// Oracle tests for the waveform kernel. The references below are the
// allocating implementations the arena kernel replaced, kept verbatim:
// refEvalGate rescans Kind.Eval over a []bool at every event and filters
// with refFilterPulses, and refDiff canonicalizes the XOR walk with
// interval.New and Clip. evalGate, filterPulses and Diff must agree with
// them bit for bit: evalGate here, the other two in the property tests
// (waveform_prop_test.go) and FuzzWaveformDiff.

import (
	"math/rand"
	"slices"
	"testing"

	"fastmon/internal/cell"
	"fastmon/internal/circuit"
	"fastmon/internal/interval"
	"fastmon/internal/tunit"
)

func refEvalGate(kind circuit.Kind, inputs []Waveform, delays []cell.Edge, minPulse tunit.Time) Waveform {
	vals := make([]bool, len(inputs))
	pos := make([]int, len(inputs))
	for i, w := range inputs {
		vals[i] = w.Init
	}
	initOut := kind.Eval(vals)

	var sched []tunit.Time // toggle times of the scheduled output
	schedVal := initOut    // value after the last scheduled toggle
	toggled := make([]int, 0, 4)

	for {
		// Next event time over all inputs.
		t := tunit.Infinity
		for i, w := range inputs {
			if pos[i] < len(w.T) && w.T[pos[i]] < t {
				t = w.T[pos[i]]
			}
		}
		if t == tunit.Infinity {
			break
		}
		toggled = toggled[:0]
		for i, w := range inputs {
			if pos[i] < len(w.T) && w.T[pos[i]] == t {
				vals[i] = !vals[i]
				pos[i]++
				toggled = append(toggled, i)
			}
		}
		newOut := kind.Eval(vals)
		// Delay of the earliest-acting toggled pin for this output edge.
		d := tunit.Infinity
		for _, p := range toggled {
			var pd tunit.Time
			if newOut {
				pd = delays[p].Rise
			} else {
				pd = delays[p].Fall
			}
			if pd < d {
				d = pd
			}
		}
		eff := t + d
		// Cancellation: a new event at or before a scheduled one overtakes
		// it. This also lets a faster pin re-confirm the same output value
		// earlier (e.g. the second rising input of an OR gate).
		for len(sched) > 0 && sched[len(sched)-1] >= eff {
			sched = sched[:len(sched)-1]
			schedVal = !schedVal
		}
		if newOut != schedVal {
			sched = append(sched, eff)
			schedVal = newOut
		}
	}
	return refFilterPulses(Waveform{Init: initOut, T: sched}, minPulse)
}

func refFilterPulses(w Waveform, minPulse tunit.Time) Waveform {
	if minPulse <= 0 || len(w.T) < 2 {
		return w
	}
	out := make([]tunit.Time, 0, len(w.T))
	for _, t := range w.T {
		if n := len(out); n > 0 && t-out[n-1] < minPulse {
			out = out[:n-1]
			continue
		}
		out = append(out, t)
	}
	return Waveform{Init: w.Init, T: out}
}

func refDiff(w, o Waveform, horizon tunit.Time) interval.Set {
	differs := w.Init != o.Init
	var ivs []interval.Interval
	start := -tunit.Infinity
	i, j := 0, 0
	emit := func(end tunit.Time) {
		if differs {
			ivs = append(ivs, interval.Interval{Lo: start, Hi: end})
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
	return interval.New(ivs...).Clip(0, horizon)
}

// gridWaveform draws a waveform whose toggles sit on a coarse grid, so
// that pins of one gate often toggle at the same instant.
func gridWaveform(rng *rand.Rand) Waveform {
	w := Waveform{Init: rng.Intn(2) == 0}
	t := tunit.Time(0)
	for n := rng.Intn(7); n > 0; n-- {
		t += 5 * tunit.Time(1+rng.Intn(6))
		w.T = append(w.T, t)
	}
	return w
}

// randEdge draws pin delays that include zero and rise == fall.
func randEdge(rng *rand.Rand) cell.Edge {
	d := func() tunit.Time {
		if rng.Intn(5) == 0 {
			return 0
		}
		return tunit.Time(rng.Intn(40))
	}
	e := cell.Edge{Rise: d(), Fall: d()}
	if rng.Intn(3) == 0 {
		e.Fall = e.Rise
	}
	return e
}

// TestEvalGateMatchesReference drives the arena evaluator against
// refEvalGate over every combinational kind at arity 1-10 (past the stack
// buffers), random pin delays and both filter settings, writing into a
// nil arena, one with a prefix and one at full capacity. Every returned
// toggle slice must be capacity-capped, the prefix must survive, and the
// waveforms returned earlier into a shared arena must stay unchanged.
func TestEvalGateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	pulses := []tunit.Time{0, cell.NanGate45().MinPulse()}
	type kept struct {
		w    Waveform
		want []tunit.Time
	}
	for iter := 0; iter < 300; iter++ {
		var shared []tunit.Time
		var earlier []kept
		prefix := []tunit.Time{-7, -3}
		for k := circuit.Buf; k < circuit.DFF; k++ {
			maxN := 10
			if k == circuit.Buf || k == circuit.Not {
				maxN = 1
			}
			for n := 1; n <= maxN; n++ {
				ins := make([]Waveform, n)
				delays := make([]cell.Edge, n)
				for i := range ins {
					ins[i] = gridWaveform(rng)
					delays[i] = randEdge(rng)
				}
				// Often a single toggling pin, the direct-walk case.
				if keep := rng.Intn(n); rng.Intn(3) == 0 {
					for i := range ins {
						if i != keep {
							ins[i].T = nil
						}
					}
				}
				minPulse := pulses[rng.Intn(len(pulses))]
				want := refEvalGate(k, ins, delays, minPulse)

				arenas := []struct {
					name  string
					arena []tunit.Time
				}{
					{"nil", nil},
					{"prefix", append(make([]tunit.Time, 0, 64), prefix...)},
					{"full", slices.Clip(slices.Clone(prefix))},
					{"shared", shared},
				}
				for _, a := range arenas {
					name, before := a.name, slices.Clone(a.arena)
					start := len(before)
					got, grown := evalGate(k, ins, delays, minPulse, a.arena)
					if got.Init != want.Init || !slices.Equal(got.T, want.T) {
						t.Fatalf("%v/%d arena %s: evalGate = %v, reference %v (inputs %v, delays %v, minPulse %d)",
							k, n, name, got, want, ins, delays, minPulse)
					}
					if cap(got.T) != len(got.T) {
						t.Fatalf("%v/%d arena %s: returned slice has cap %d > len %d", k, n, name, cap(got.T), len(got.T))
					}
					if len(grown) < start || !slices.Equal(grown[:start], before) {
						t.Fatalf("%v/%d arena %s: prefix %v became %v", k, n, name, before, grown[:min(start, len(grown))])
					}
					if name == "shared" {
						shared = grown
						earlier = append(earlier, kept{got, slices.Clone(got.T)})
					}
				}
				if got := EvalGate(k, ins, delays, minPulse); got.Init != want.Init || !slices.Equal(got.T, want.T) {
					t.Fatalf("%v/%d: EvalGate = %v, reference %v", k, n, got, want)
				}
			}
		}
		for i, e := range earlier {
			if !slices.Equal(e.w.T, e.want) {
				t.Fatalf("iter %d: waveform %d in the shared arena changed from %v to %v", iter, i, e.want, e.w.T)
			}
		}
	}
}
