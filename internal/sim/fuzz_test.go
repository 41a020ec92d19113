package sim

import (
	"testing"

	"fastmon/internal/tunit"
)

// decodeWaveform turns raw fuzz bytes into a valid waveform: the first
// byte's low bit picks the initial value, every following byte is a gap of
// byte+1 time units to the next toggle (so the toggle list is strictly
// increasing by construction).
func decodeWaveform(data []byte) Waveform {
	if len(data) == 0 {
		return Waveform{}
	}
	w := Waveform{Init: data[0]&1 == 1}
	t := tunit.Time(0)
	for _, b := range data[1:] {
		t += tunit.Time(b) + 1
		w.T = append(w.T, t)
	}
	return w
}

// FuzzWaveformDiff drives the full waveform algebra — Diff, FilterPulses
// and DelayTransitions — with arbitrary byte-derived waveforms and checks
// the invariants the fault simulator relies on. Diff, which emits its set
// without canonicalizing, must equal the interval.New+Clip reference
// refDiff.
func FuzzWaveformDiff(f *testing.F) {
	f.Add([]byte{1, 5, 16, 3}, []byte{0, 3, 20}, uint16(100))
	f.Add([]byte{}, []byte{1}, uint16(1))
	f.Add([]byte{0}, []byte{1, 0, 0, 0}, uint16(40))
	f.Add([]byte{1, 255, 255}, []byte{1, 1, 1, 1, 1, 1}, uint16(600))
	f.Fuzz(func(t *testing.T, a, b []byte, hraw uint16) {
		w, o := decodeWaveform(a), decodeWaveform(b)
		horizon := tunit.Time(hraw) + 1
		if !w.valid() || !o.valid() {
			t.Fatalf("decoder produced invalid waveform: %v / %v", w, o)
		}

		d := w.Diff(o, horizon)
		if !d.Canonical() {
			t.Fatalf("Diff not canonical: %v", d)
		}
		if ref := refDiff(w, o, horizon); !d.Equal(ref) {
			t.Fatalf("Diff(%v, %v, %d) = %v, reference %v", w, o, horizon, d, ref)
		}
		if !d.Equal(o.Diff(w, horizon)) {
			t.Fatalf("Diff not symmetric for %v / %v", w, o)
		}
		if !d.Empty() && (d.Min() < 0 || d.Max() > horizon) {
			t.Fatalf("Diff escaped [0, %d): %v", horizon, d)
		}
		if !w.Diff(w, horizon).Empty() {
			t.Fatalf("self-diff not empty for %v", w)
		}

		minPulse := tunit.Time(hraw % 64)
		fp := w.FilterPulses(minPulse)
		if !fp.valid() {
			t.Fatalf("FilterPulses(%d) broke the invariant: %v -> %v", minPulse, w, fp)
		}
		if !fp.FilterPulses(minPulse).Equal(fp) {
			t.Fatalf("FilterPulses(%d) not idempotent on %v", minPulse, w)
		}

		delta := tunit.Time(hraw % 97)
		for _, rising := range []bool{true, false} {
			dt := w.DelayTransitions(delta, rising)
			if !dt.valid() {
				t.Fatalf("DelayTransitions(%d, %v) broke the invariant: %v -> %v", delta, rising, w, dt)
			}
			if dt.Final() != w.Final() {
				t.Fatalf("DelayTransitions(%d, %v) changed the settled value of %v", delta, rising, w)
			}
		}
	})
}
