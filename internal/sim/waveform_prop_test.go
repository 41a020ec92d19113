package sim

// Property-based tests for the waveform algebra. Every law here is load-
// bearing for the event-driven fault simulator: FilterPulses idempotence
// justifies applying the inertial filter once per gate, Diff symmetry makes
// detection ranges independent of operand order, DelayTransitions
// monotonicity backs the fault model (a bigger delay defect never reveals
// *more* signal), and the highIntervals round-trip ties the waveform and
// interval representations together.

import (
	"math/rand"
	"slices"
	"testing"

	"fastmon/internal/interval"
	"fastmon/internal/tunit"
)

// genWaveform draws a random valid waveform: random initial value and up to
// maxToggles strictly increasing toggle times with small random gaps, so
// pulse widths straddle typical minPulse thresholds.
func genWaveform(rng *rand.Rand, maxToggles int) Waveform {
	w := Waveform{Init: rng.Intn(2) == 0}
	n := rng.Intn(maxToggles + 1)
	t := tunit.Time(rng.Intn(50))
	for i := 0; i < n; i++ {
		t += 1 + tunit.Time(rng.Intn(120))
		w.T = append(w.T, t)
	}
	return w
}

const propIters = 2000

// TestPropFilterPulsesIdempotent also checks the in-place filter against
// the allocating reference refFilterPulses and that it leaves its receiver
// alone.
func TestPropFilterPulsesIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < propIters; i++ {
		w := genWaveform(rng, 12)
		minPulse := tunit.Time(rng.Intn(150))
		orig := slices.Clone(w.T)
		f1 := w.FilterPulses(minPulse)
		if !f1.valid() {
			t.Fatalf("iter %d: FilterPulses(%d) broke the toggle invariant: %v -> %v", i, minPulse, w, f1)
		}
		if ref := refFilterPulses(w, minPulse); !f1.Equal(ref) {
			t.Fatalf("iter %d: FilterPulses(%d) of %v = %v, reference %v", i, minPulse, w, f1, ref)
		}
		if !slices.Equal(w.T, orig) {
			t.Fatalf("iter %d: FilterPulses(%d) modified its receiver: %v -> %v", i, minPulse, orig, w.T)
		}
		if f2 := f1.FilterPulses(minPulse); !f1.Equal(f2) {
			t.Fatalf("iter %d: not idempotent: %v -> %v -> %v (minPulse %d)", i, w, f1, f2, minPulse)
		}
	}
}

func TestPropFilterPulsesRemovesShortPulses(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < propIters; i++ {
		w := genWaveform(rng, 12)
		minPulse := tunit.Time(1 + rng.Intn(150))
		f := w.FilterPulses(minPulse)
		for j := 1; j < len(f.T); j++ {
			if f.T[j]-f.T[j-1] < minPulse {
				t.Fatalf("iter %d: pulse of width %d survived FilterPulses(%d): %v -> %v",
					i, f.T[j]-f.T[j-1], minPulse, w, f)
			}
		}
		if f.Init != w.Init {
			t.Fatalf("iter %d: FilterPulses changed the initial value", i)
		}
	}
}

// TestPropDiffSymmetric also checks Diff against the canonicalizing
// reference refDiff, on horizons at and below zero too and on grid-aligned
// pairs that often toggle at the same instant.
func TestPropDiffSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < propIters; i++ {
		w := genWaveform(rng, 10)
		o := genWaveform(rng, 10)
		if rng.Intn(4) == 0 {
			w, o = gridWaveform(rng), gridWaveform(rng)
		}
		horizon := tunit.Time(rng.Intn(2100) - 100)
		ab, ba := w.Diff(o, horizon), o.Diff(w, horizon)
		if !ab.Equal(ba) {
			t.Fatalf("iter %d: Diff not symmetric: %v vs %v for %v / %v", i, ab, ba, w, o)
		}
		if !ab.Canonical() {
			t.Fatalf("iter %d: Diff result not canonical: %v", i, ab)
		}
		if ref := refDiff(w, o, horizon); !ab.Equal(ref) {
			t.Fatalf("iter %d: Diff(%v, %v, %d) = %v, reference %v", i, w, o, horizon, ab, ref)
		}
		if !ab.Empty() && (ab.Min() < 0 || ab.Max() > horizon) {
			t.Fatalf("iter %d: Diff escaped [0, %d): %v", i, horizon, ab)
		}
	}
}

func TestPropDiffSelfEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < propIters; i++ {
		w := genWaveform(rng, 10)
		if d := w.Diff(w, 10000); !d.Empty() {
			t.Fatalf("iter %d: self-diff not empty: %v for %v", i, d, w)
		}
	}
}

// TestPropDelayTransitionsMonotone: for a rising-delay fault, a larger
// defect size can only shrink the time the signal spends high (high
// intervals are nested as delta grows); for falling delays they can only
// grow. The settled value is preserved either way.
func TestPropDelayTransitionsMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < propIters; i++ {
		w := genWaveform(rng, 10)
		d1 := tunit.Time(rng.Intn(100))
		d2 := d1 + tunit.Time(rng.Intn(100))
		for _, rising := range []bool{true, false} {
			w1 := w.DelayTransitions(d1, rising)
			w2 := w.DelayTransitions(d2, rising)
			if !w1.valid() || !w2.valid() {
				t.Fatalf("iter %d: DelayTransitions broke the toggle invariant: %v / %v", i, w1, w2)
			}
			if w1.Final() != w.Final() || w2.Final() != w.Final() {
				t.Fatalf("iter %d: DelayTransitions changed the settled value: %v -> %v / %v", i, w, w1, w2)
			}
			h1 := interval.New(w1.highIntervals()...)
			h2 := interval.New(w2.highIntervals()...)
			if rising {
				// Bigger rising delay -> high set shrinks.
				if !h2.Subtract(h1).Empty() {
					t.Fatalf("iter %d: rising delay %d high set not nested in delay %d: %v vs %v (from %v)",
						i, d2, d1, h2, h1, w)
				}
			} else {
				if !h1.Subtract(h2).Empty() {
					t.Fatalf("iter %d: falling delay %d high set not nested in delay %d: %v vs %v (from %v)",
						i, d1, d2, h1, h2, w)
				}
			}
		}
	}
}

func TestPropHighIntervalsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < propIters; i++ {
		w := genWaveform(rng, 12)
		back := fromHighIntervals(interval.New(w.highIntervals()...))
		if !back.Equal(w) {
			t.Fatalf("iter %d: round trip diverged: %v -> %v", i, w, back)
		}
	}
}
