package sim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fastmon/internal/interval"
	"fastmon/internal/tunit"
)

func wf(init bool, ts ...tunit.Time) Waveform { return Waveform{Init: init, T: ts} }

// valid reports whether the toggle list is strictly increasing (the
// Waveform invariant).
func (w Waveform) valid() bool {
	for i := 1; i < len(w.T); i++ {
		if w.T[i-1] >= w.T[i] {
			return false
		}
	}
	return true
}

func TestWaveformAt(t *testing.T) {
	w := wf(false, 10, 20, 30)
	cases := []struct {
		t    tunit.Time
		want bool
	}{{0, false}, {9, false}, {10, true}, {19, true}, {20, false}, {30, true}, {100, true}}
	for _, c := range cases {
		if got := w.At(c.t); got != c.want {
			t.Errorf("At(%d) = %v, want %v", c.t, got, c.want)
		}
	}
	if w.Final() != true {
		t.Fatal("Final wrong")
	}
	if Const(true).At(5) != true || Const(true).Final() != true {
		t.Fatal("Const wrong")
	}
}

func TestStep(t *testing.T) {
	w := Step(false, true, 7)
	if w.Toggles() != 1 || w.At(6) || !w.At(7) {
		t.Fatalf("Step = %v", w)
	}
	if Step(true, true, 7).Toggles() != 0 {
		t.Fatal("constant Step must have no toggles")
	}
	if w.LastToggle() != 7 || Const(false).LastToggle() != 0 {
		t.Fatal("LastToggle wrong")
	}
}

func TestFilterPulses(t *testing.T) {
	// 5ps pulse at 10..15 removed, long pulse kept.
	w := wf(false, 10, 15, 30, 60)
	got := w.FilterPulses(8)
	want := wf(false, 30, 60)
	if !got.Equal(want) {
		t.Fatalf("FilterPulses = %v, want %v", got, want)
	}
	// Cascade: 10,15 removed, then 15..18? — build a chain where removal
	// creates a new short pair: toggles 10,12 (pulse), 13,40: after
	// removing 10,12, 13 is within threshold of nothing before it.
	w2 := wf(false, 10, 12, 13, 40)
	got2 := w2.FilterPulses(5)
	// 12-10=2 <5: cancel -> [13,40]; 13 vs empty stack: keep.
	if !got2.Equal(wf(false, 13, 40)) {
		t.Fatalf("cascade = %v", got2)
	}
	if !w.FilterPulses(0).Equal(w) {
		t.Fatal("threshold 0 must be identity")
	}
}

func TestDelayTransitionsRising(t *testing.T) {
	// 0 →1@10 →0@50: slow-to-rise by 15 → rises at 25.
	w := wf(false, 10, 50)
	got := w.DelayTransitions(15, true)
	if !got.Equal(wf(false, 25, 50)) {
		t.Fatalf("str = %v", got)
	}
	// Pulse swallowed: high 10..20, delta 15 -> rise at 25 > fall 20: gone.
	p := wf(false, 10, 20)
	if got := p.DelayTransitions(15, true); got.Toggles() != 0 || got.Init {
		t.Fatalf("pulse not swallowed: %v", got)
	}
	// Falling transitions unaffected by slow-to-rise.
	f := wf(true, 30)
	if got := f.DelayTransitions(15, true); !got.Equal(f) {
		t.Fatalf("str changed falling edge: %v", got)
	}
}

func TestDelayTransitionsFalling(t *testing.T) {
	w := wf(true, 10, 50) // 1 →0@10 →1@50
	got := w.DelayTransitions(15, false)
	if !got.Equal(wf(true, 25, 50)) {
		t.Fatalf("stf = %v", got)
	}
	// Low pulse swallowed: low 10..20, delta 15 → fall at 25 > rise 20.
	if got := w.DelayTransitions(45, false); got.Toggles() != 0 || !got.Init {
		t.Fatalf("low pulse not swallowed: %v", got)
	}
	// Initial-1 waveform with only a falling edge keeps Init.
	f := wf(true, 30)
	got = f.DelayTransitions(5, false)
	if !got.Equal(wf(true, 35)) {
		t.Fatalf("stf = %v", got)
	}
}

func TestDelayTransitionsMerge(t *testing.T) {
	// Two high pulses 10..20, 25..40; slow-to-fall by 10 merges them:
	// first falls at 30 > second rise 25 → one pulse 10..50.
	w := wf(false, 10, 20, 25, 40)
	got := w.DelayTransitions(10, false)
	if !got.Equal(wf(false, 10, 50)) {
		t.Fatalf("merge = %v", got)
	}
}

func TestDiff(t *testing.T) {
	a := wf(false, 10, 50)
	b := wf(false, 25, 50)
	d := a.Diff(b, 1000)
	if !d.Equal(fromPts(10, 25)) {
		t.Fatalf("Diff = %v", d)
	}
	// Identical waveforms: empty diff.
	if !a.Diff(a, 1000).Empty() {
		t.Fatal("self-diff not empty")
	}
	// Different final values: diff extends to horizon.
	c := wf(false, 10)
	d2 := a.Diff(c, 200)
	if !d2.Equal(fromPts(50, 200)) {
		t.Fatalf("Diff tail = %v", d2)
	}
	// Different initial values matter from time 0; matching segments in
	// the middle split the difference set.
	d3 := a.Diff(Const(true), 200)
	if !d3.Equal(fromPts(0, 10, 50, 200)) {
		t.Fatalf("Diff init = %v", d3)
	}
	// Fully inverted waveforms differ everywhere.
	e := wf(true, 10, 50)
	if !a.Diff(e, 200).Equal(fromPts(0, 200)) {
		t.Fatalf("Diff inverted = %v", a.Diff(e, 200))
	}
}

func fromPts(pts ...tunit.Time) interval.Set { return interval.FromPoints(pts...) }

func TestValid(t *testing.T) {
	if !wf(false, 1, 2, 3).valid() {
		t.Fatal("valid waveform rejected")
	}
	if wf(false, 1, 1).valid() || wf(false, 2, 1).valid() {
		t.Fatal("invalid waveform accepted")
	}
}

func TestString(t *testing.T) {
	if wf(false, 10).String() == "" || Const(true).String() == "" {
		t.Fatal("empty String")
	}
}

func randomWaveform(r *rand.Rand) Waveform {
	n := r.Intn(8)
	ts := make([]tunit.Time, 0, n)
	t := tunit.Time(0)
	for i := 0; i < n; i++ {
		t += tunit.Time(1 + r.Intn(40))
		ts = append(ts, t)
	}
	return Waveform{Init: r.Intn(2) == 0, T: ts}
}

func TestPropDelayTransitionsValid(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := func() bool {
		w := randomWaveform(r)
		d := tunit.Time(r.Intn(60))
		for _, rising := range []bool{true, false} {
			out := w.DelayTransitions(d, rising)
			if !out.valid() {
				return false
			}
			// Initial value never changes (transitions only move right).
			if out.Init != w.Init {
				return false
			}
			// Final value never changes either.
			if out.Final() != w.Final() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPropFilterPulsesValid(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	f := func() bool {
		w := randomWaveform(r)
		th := tunit.Time(r.Intn(30))
		out := w.FilterPulses(th)
		if !out.valid() {
			return false
		}
		for i := 1; i < len(out.T); i++ {
			if out.T[i]-out.T[i-1] < th {
				return false // created/kept a short pulse
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPropDiffSymmetricMembership(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	f := func() bool {
		a, b := randomWaveform(r), randomWaveform(r)
		d := a.Diff(b, 400)
		if !d.Equal(b.Diff(a, 400)) {
			return false
		}
		for i := 0; i < 40; i++ {
			p := tunit.Time(r.Intn(400))
			if d.Contains(p) != (a.At(p) != b.At(p)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}
