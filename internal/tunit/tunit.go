// Package tunit defines the integer time base used throughout fastmon.
//
// All delays, clock periods, waveform toggle times and detection-range
// endpoints are expressed in integer picoseconds. Integer time keeps the
// interval algebra exact: unions, shifts and comparisons never suffer from
// floating-point drift, and two detection ranges computed along different
// code paths compare equal bit-for-bit.
package tunit

import (
	"fmt"
	"math"
)

// Time is a point in time or a duration, in picoseconds.
type Time int64

// Common scale factors.
const (
	Ps Time = 1
	Ns Time = 1000
	Us Time = 1000 * 1000
)

// Infinity is a sentinel meaning "beyond any observation time". It is large
// enough that no realistic schedule reaches it, yet small enough that sums
// of a few Infinity values do not overflow int64.
const Infinity Time = math.MaxInt64 / 16

// Ns returns t expressed in nanoseconds.
func (t Time) Ns() float64 { return float64(t) / 1000 }

// Ps returns t expressed in picoseconds as an int64.
func (t Time) Ps() int64 { return int64(t) }

// String renders the time with an adaptive unit, e.g. "250ps", "1.350ns".
func (t Time) String() string {
	switch {
	case t == Infinity:
		return "inf"
	case t == -Infinity:
		return "-inf"
	case t%Ns == 0 && (t >= Ns || t <= -Ns):
		return fmt.Sprintf("%dns", t/Ns)
	case t >= Ns || t <= -Ns:
		return fmt.Sprintf("%.3fns", t.Ns())
	default:
		return fmt.Sprintf("%dps", int64(t))
	}
}

// Scale multiplies t by the dimensionless factor f, rounding to nearest
// picosecond. It is used for derived quantities such as clk := 1.05·cpl or
// monitor delays d := 0.05·clk.
func (t Time) Scale(f float64) Time {
	return Time(math.Round(float64(t) * f))
}

// Freq is a clock frequency in hertz. Frequencies appear only at the API
// boundary (reports, CLI); internally everything is a clock *period*.
type Freq float64

// Period returns the clock period corresponding to f.
func (f Freq) Period() Time {
	if f <= 0 {
		return Infinity
	}
	return Time(math.Round(1e12 / float64(f)))
}

// MHz renders the frequency in MHz.
func (f Freq) MHz() float64 { return float64(f) / 1e6 }

// GHz renders the frequency in GHz.
func (f Freq) GHz() float64 { return float64(f) / 1e9 }

func (f Freq) String() string {
	switch {
	case f >= 1e9:
		return fmt.Sprintf("%.3fGHz", f.GHz())
	case f >= 1e6:
		return fmt.Sprintf("%.1fMHz", f.MHz())
	default:
		return fmt.Sprintf("%.0fHz", float64(f))
	}
}

// Min returns the smaller of a and b.
func Min(a, b Time) Time {
	if a < b {
		return a
	}
	return b
}

// Max returns the larger of a and b.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}
