package interval

import (
	"testing"

	"fastmon/internal/tunit"
)

// decodeSet turns fuzz bytes into an arbitrary canonical set: each byte
// pair yields one valid [lo, lo+1+w) interval, canonicalized by New.
func decodeSet(b []byte) Set {
	var ivs []Interval
	for i := 0; i+1 < len(b); i += 2 {
		lo := tunit.Time(b[i])
		ivs = append(ivs, Interval{Lo: lo, Hi: lo + 1 + tunit.Time(b[i+1]%64)})
	}
	return New(ivs...)
}

func TestIntoVariantsMatchAllocating(t *testing.T) {
	a := FromPoints(0, 10, 20, 30, 40, 50)
	b := FromPoints(5, 25, 45, 60)
	var dst Set
	a.UnionInto(b, &dst)
	if !dst.Equal(a.Union(b)) {
		t.Fatalf("UnionInto = %v, want %v", dst, a.Union(b))
	}
	a.ClipInto(8, 42, &dst)
	if !dst.Equal(a.Clip(8, 42)) {
		t.Fatalf("ClipInto = %v, want %v", dst, a.Clip(8, 42))
	}
	a.ShiftClipInto(7, 8, 42, &dst)
	if !dst.Equal(a.Shift(7).Clip(8, 42)) {
		t.Fatalf("ShiftClipInto = %v, want %v", dst, a.Shift(7).Clip(8, 42))
	}
	// Degenerate windows must clear the destination, not leave stale data.
	a.ClipInto(42, 42, &dst)
	if !dst.Empty() {
		t.Fatalf("ClipInto empty window = %v", dst)
	}
	a.ShiftClipInto(0, 50, 10, &dst)
	if !dst.Empty() {
		t.Fatalf("ShiftClipInto inverted window = %v", dst)
	}
}

func TestAccum(t *testing.T) {
	var acc Accum
	if !acc.Empty() {
		t.Fatal("zero Accum not empty")
	}
	acc.Add(FromPoints(10, 20))
	acc.Add(FromPoints(15, 30))
	acc.Add(Set{})
	acc.Add(FromPoints(40, 50))
	want := FromPoints(10, 30, 40, 50)
	if !acc.Result().Equal(want) {
		t.Fatalf("Accum = %v, want %v", acc.Result(), want)
	}
	frozen := acc.Copy()
	acc.Reset()
	if !acc.Empty() || !frozen.Equal(want) {
		t.Fatal("Reset corrupted frozen copy")
	}
	acc.Add(FromPoints(1, 2))
	if !acc.Result().Equal(FromPoints(1, 2)) {
		t.Fatalf("Accum after reset = %v", acc.Result())
	}
}

// FuzzIntervalInto is the differential fuzz of the in-place kernel: every
// *Into variant must produce the same set as its allocating counterpart
// and a canonical representation, for arbitrary canonical inputs, shifts
// and windows.
func FuzzIntervalInto(f *testing.F) {
	f.Add([]byte{0, 10, 20, 5}, []byte{5, 8}, int64(7), int64(3), int64(90))
	f.Add([]byte{}, []byte{1, 1}, int64(-4), int64(0), int64(0))
	f.Add([]byte{255, 63, 0, 63, 128, 1}, []byte{127, 40, 130, 2}, int64(-100), int64(50), int64(40))
	f.Fuzz(func(t *testing.T, ab, bb []byte, d, lo, hi int64) {
		a, b := decodeSet(ab), decodeSet(bb)
		sh := tunit.Time(d % 1000)
		wlo, whi := tunit.Time(lo%512), tunit.Time(hi%512)
		var dst Set
		check := func(op string, want Set) {
			t.Helper()
			if !dst.Canonical() {
				t.Fatalf("%s(%v, %v): non-canonical %v", op, a, b, dst)
			}
			if !dst.Equal(want) {
				t.Fatalf("%s(%v, %v) = %v, want %v", op, a, b, dst, want)
			}
		}
		a.UnionInto(b, &dst)
		check("UnionInto", a.Union(b))
		a.ClipInto(wlo, whi, &dst)
		check("ClipInto", a.Clip(wlo, whi))
		a.ShiftClipInto(sh, wlo, whi, &dst)
		check("ShiftClipInto", a.Shift(sh).Clip(wlo, whi))

		// The accumulator must agree with a left fold of Union.
		var acc Accum
		acc.Add(a)
		acc.Add(b)
		acc.Add(a)
		if got := acc.Copy(); !got.Equal(a.Union(b)) || !got.Canonical() {
			t.Fatalf("Accum(%v, %v) = %v, want %v", a, b, got, a.Union(b))
		}
	})
}
