package tunit

import (
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{250, "250ps"},
		{Ns, "1ns"},
		{1350, "1.350ns"},
		{3 * Ns, "3ns"},
		{Infinity, "inf"},
		{-Infinity, "-inf"},
		{0, "0ps"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestScale(t *testing.T) {
	clk := Time(1000)
	if got := clk.Scale(1.05); got != 1050 {
		t.Fatalf("Scale(1.05) = %d", got)
	}
	if got := clk.Scale(1.0 / 3.0); got != 333 {
		t.Fatalf("Scale(1/3) = %d", got)
	}
	if got := clk.Scale(0.05); got != 50 {
		t.Fatalf("Scale(0.05) = %d", got)
	}
}

func TestFreqPeriodRoundTrip(t *testing.T) {
	f := Freq(1e9) // 1 GHz
	if got := f.Period(); got != 1000 {
		t.Fatalf("1GHz period = %d ps, want 1000", got)
	}
	if got := Freq(0).Period(); got != Infinity {
		t.Fatalf("zero frequency period = %d, want Infinity", got)
	}
}

func TestFreqString(t *testing.T) {
	if got := Freq(2.5e9).String(); got != "2.500GHz" {
		t.Fatalf("String = %q", got)
	}
	if got := Freq(100e6).String(); got != "100.0MHz" {
		t.Fatalf("String = %q", got)
	}
	if got := Freq(500).String(); got != "500Hz" {
		t.Fatalf("String = %q", got)
	}
}

func TestMinMax(t *testing.T) {
	if Min(3, 5) != 3 || Min(5, 3) != 3 || Max(3, 5) != 5 || Max(5, 3) != 5 {
		t.Fatal("Min/Max wrong")
	}
}

func TestPropPeriodFreqInverse(t *testing.T) {
	f := func(raw uint16) bool {
		p := Time(raw) + 1 // 1..65536 ps
		back := Freq(1e12 / float64(p)).Period()
		// Round trip through float must be exact for small periods.
		return back == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
