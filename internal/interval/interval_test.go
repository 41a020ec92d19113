package interval

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"fastmon/internal/tunit"
)

func set(pts ...tunit.Time) Set { return FromPoints(pts...) }

func TestIntervalBasics(t *testing.T) {
	iv := Interval{10, 20}
	if iv.Empty() {
		t.Fatal("non-empty interval reported empty")
	}
	if got := iv.Len(); got != 10 {
		t.Fatalf("Len = %d, want 10", got)
	}
	if !iv.Contains(10) || iv.Contains(20) || !iv.Contains(15) {
		t.Fatal("half-open containment wrong")
	}
	if got := iv.Mid(); got != 15 {
		t.Fatalf("Mid = %d, want 15", got)
	}
	if (Interval{5, 5}).Len() != 0 {
		t.Fatal("empty interval has nonzero length")
	}
	if (Interval{7, 3}).Empty() != true {
		t.Fatal("inverted interval must be empty")
	}
}

func TestNewCanonicalizes(t *testing.T) {
	s := New(
		Interval{30, 40},
		Interval{0, 10},
		Interval{5, 12},  // overlaps first
		Interval{12, 20}, // adjacent -> merged
		Interval{50, 50}, // empty -> dropped
	)
	want := set(0, 20, 30, 40)
	if !s.Equal(want) {
		t.Fatalf("New = %v, want %v", s, want)
	}
	if !s.Canonical() {
		t.Fatal("result not canonical")
	}
}

func TestUnion(t *testing.T) {
	a := set(0, 10, 20, 30)
	b := set(5, 25, 40, 50)
	got := a.Union(b)
	want := set(0, 30, 40, 50)
	if !got.Equal(want) {
		t.Fatalf("Union = %v, want %v", got, want)
	}
	if !a.Union(Set{}).Equal(a) || !(Set{}).Union(a).Equal(a) {
		t.Fatal("union with empty set is not identity")
	}
}

func TestIntersect(t *testing.T) {
	a := set(0, 10, 20, 30, 40, 60)
	b := set(5, 25, 45, 50, 55, 70)
	got := a.Intersect(b)
	want := set(5, 10, 20, 25, 45, 50, 55, 60)
	if !got.Equal(want) {
		t.Fatalf("Intersect = %v, want %v", got, want)
	}
	if !a.Intersect(Set{}).Empty() {
		t.Fatal("intersection with empty set not empty")
	}
}

func TestSubtract(t *testing.T) {
	a := set(0, 100)
	b := set(10, 20, 30, 40, 90, 120)
	got := a.Subtract(b)
	want := set(0, 10, 20, 30, 40, 90)
	if !got.Equal(want) {
		t.Fatalf("Subtract = %v, want %v", got, want)
	}
	if !a.Subtract(a).Empty() {
		t.Fatal("a \\ a must be empty")
	}
	if !a.Subtract(Set{}).Equal(a) {
		t.Fatal("a \\ ∅ must be a")
	}
}

func TestSubtractSpanning(t *testing.T) {
	a := set(10, 20, 30, 40)
	b := set(0, 100)
	if got := a.Subtract(b); !got.Empty() {
		t.Fatalf("Subtract spanning = %v, want empty", got)
	}
}

func TestShift(t *testing.T) {
	a := set(10, 20, 40, 50)
	got := a.Shift(100)
	want := set(110, 120, 140, 150)
	if !got.Equal(want) {
		t.Fatalf("Shift = %v, want %v", got, want)
	}
	if !a.Shift(0).Equal(a) {
		t.Fatal("zero shift must be identity")
	}
	if !a.Shift(-5).Equal(set(5, 15, 35, 45)) {
		t.Fatal("negative shift wrong")
	}
}

func TestClip(t *testing.T) {
	a := set(0, 10, 20, 30, 40, 50)
	got := a.Clip(5, 45)
	want := set(5, 10, 20, 30, 40, 45)
	if !got.Equal(want) {
		t.Fatalf("Clip = %v, want %v", got, want)
	}
	if !a.Clip(100, 200).Empty() {
		t.Fatal("clip outside must be empty")
	}
}

func TestFilterShort(t *testing.T) {
	a := set(0, 3, 10, 20, 30, 34)
	got := a.FilterShort(5)
	want := set(10, 20)
	if !got.Equal(want) {
		t.Fatalf("FilterShort = %v, want %v", got, want)
	}
	if !a.FilterShort(0).Equal(a) {
		t.Fatal("threshold 0 must be identity")
	}
}

func TestContains(t *testing.T) {
	a := set(10, 20, 30, 40)
	for _, tc := range []struct {
		t    tunit.Time
		want bool
	}{{9, false}, {10, true}, {19, true}, {20, false}, {25, false}, {30, true}, {39, true}, {40, false}} {
		if got := a.Contains(tc.t); got != tc.want {
			t.Errorf("Contains(%d) = %v, want %v", tc.t, got, tc.want)
		}
	}
	if (Set{}).Contains(0) {
		t.Fatal("empty set contains a point")
	}
}

func TestMinMaxMeasure(t *testing.T) {
	a := set(10, 20, 30, 45)
	if a.Min() != 10 || a.Max() != 45 {
		t.Fatalf("Min/Max = %d/%d", a.Min(), a.Max())
	}
	if a.Measure() != 25 {
		t.Fatalf("Measure = %d, want 25", a.Measure())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Min of empty set must panic")
		}
	}()
	_ = (Set{}).Min()
}

func TestBoundaries(t *testing.T) {
	a := set(10, 20, 30, 40)
	b := a.AppendBoundaries([]tunit.Time{1, 2})
	want := []tunit.Time{1, 2, 10, 20, 30, 40}
	if !slices.Equal(b, want) {
		t.Fatalf("AppendBoundaries = %v, want %v", b, want)
	}
}

func TestString(t *testing.T) {
	if got := (Set{}).String(); got != "∅" {
		t.Fatalf("empty String = %q", got)
	}
	if got := set(1, 2).String(); got == "" {
		t.Fatal("String empty for non-empty set")
	}
}

// randomSet builds a random canonical set for property tests.
func randomSet(r *rand.Rand) Set {
	n := r.Intn(8)
	ivs := make([]Interval, n)
	for i := range ivs {
		lo := tunit.Time(r.Intn(1000))
		ivs[i] = Interval{lo, lo + tunit.Time(r.Intn(100))}
	}
	return New(ivs...)
}

func TestPropCanonical(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := func() bool {
		a, b := randomSet(r), randomSet(r)
		for _, s := range []Set{a.Union(b), a.Intersect(b), a.Subtract(b),
			a.Shift(tunit.Time(r.Intn(200) - 100)), a.FilterShort(tunit.Time(r.Intn(20))),
			a.Clip(100, 800)} {
			if !s.Canonical() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPropMembershipAlgebra(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	f := func() bool {
		a, b := randomSet(r), randomSet(r)
		u, x, d := a.Union(b), a.Intersect(b), a.Subtract(b)
		for i := 0; i < 50; i++ {
			p := tunit.Time(r.Intn(1200))
			ina, inb := a.Contains(p), b.Contains(p)
			if u.Contains(p) != (ina || inb) {
				return false
			}
			if x.Contains(p) != (ina && inb) {
				return false
			}
			if d.Contains(p) != (ina && !inb) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropMeasureMonotone(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	f := func() bool {
		a, b := randomSet(r), randomSet(r)
		u := a.Union(b)
		if u.Measure() < a.Measure() || u.Measure() < b.Measure() {
			return false
		}
		// Inclusion–exclusion: |a∪b| = |a|+|b|-|a∩b|.
		return u.Measure() == a.Measure()+b.Measure()-a.Intersect(b).Measure()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropShiftInverse(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	f := func() bool {
		a := randomSet(r)
		d := tunit.Time(r.Intn(500))
		return a.Shift(d).Shift(-d).Equal(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropFilterNeverCreatesShort(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	f := func() bool {
		a := randomSet(r)
		th := tunit.Time(r.Intn(30))
		for _, iv := range a.FilterShort(th).Intervals() {
			if iv.Len() < th {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropSubtractUnionPartition(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	f := func() bool {
		a, b := randomSet(r), randomSet(r)
		// (a\b) ∪ (a∩b) == a, and the two parts are disjoint.
		diff, inter := a.Subtract(b), a.Intersect(b)
		if !diff.Intersect(inter).Empty() {
			return false
		}
		return diff.Union(inter).Equal(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFromPointsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromPoints with odd boundary count must panic")
		}
	}()
	FromPoints(1, 2, 3)
}

func TestJSONRoundTrip(t *testing.T) {
	cases := []Set{
		{},
		set(1, 5),
		set(0, 3, 10, 20, 30, 31),
		FromPoints(-5, -1, 4, 9),
	}
	for _, s := range cases {
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("marshal %v: %v", s, err)
		}
		var got Set
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatalf("unmarshal %s: %v", data, err)
		}
		if !got.Equal(s) {
			t.Fatalf("round trip changed the set: %v -> %s -> %v", s, data, got)
		}
	}
	// A set inside a struct field must round-trip too (the cache stores
	// detection intervals as struct fields).
	type wrap struct{ FF, SR Set }
	w := wrap{FF: set(2, 8, 12, 16), SR: set(1, 3)}
	data, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	var got wrap
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if !got.FF.Equal(w.FF) || !got.SR.Equal(w.SR) {
		t.Fatalf("struct round trip mismatch: %+v", got)
	}
}

func TestJSONRoundTripQuick(t *testing.T) {
	f := func(pts []int16) bool {
		ts := make([]tunit.Time, len(pts))
		for i, p := range pts {
			ts[i] = tunit.Time(p)
		}
		if len(ts)%2 == 1 {
			ts = ts[:len(ts)-1]
		}
		s := FromPoints(ts...)
		data, err := json.Marshal(s)
		if err != nil {
			return false
		}
		var got Set
		if err := json.Unmarshal(data, &got); err != nil {
			return false
		}
		return got.Equal(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestJSONRejectsOddBoundaries(t *testing.T) {
	var s Set
	if err := json.Unmarshal([]byte("[1,2,3]"), &s); err == nil {
		t.Fatal("odd boundary count accepted")
	}
	if err := json.Unmarshal([]byte(`"nope"`), &s); err == nil {
		t.Fatal("non-array accepted")
	}
}

// wideSet is a random canonical set over the whole int64 range: sorted
// distinct boundaries, so the values run to 19 digits and both signs.
func wideSet(r *rand.Rand) Set {
	pts := make([]tunit.Time, 2*r.Intn(6))
	for i := range pts {
		pts[i] = tunit.Time(r.Int63() - r.Int63())
	}
	slices.Sort(pts)
	if len(slices.Compact(pts)) != len(pts) {
		return Set{}
	}
	return FromPoints(pts...)
}

// TestJSONMatchesBoundaries pins MarshalJSON to the bytes encoding/json
// writes for the boundary list, and checks the round trip, on random
// canonical sets: small and shifted below zero, spread over the int64
// range, at its ends, and empty.
func TestJSONMatchesBoundaries(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	sets := []Set{{}, FromPoints(math.MinInt64, math.MinInt64+1, -1, 0, math.MaxInt64-1, math.MaxInt64)}
	for i := 0; i < 500; i++ {
		sets = append(sets, randomSet(r).Shift(tunit.Time(r.Intn(2000)-1000)), wideSet(r))
	}
	for _, s := range sets {
		got, err := s.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(s.AppendBoundaries([]tunit.Time{}))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("MarshalJSON(%v) = %s, json.Marshal of the boundaries = %s", s, got, want)
		}
		var back Set
		if err := json.Unmarshal(got, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", got, err)
		}
		if !back.Equal(s) || !back.Canonical() {
			t.Fatalf("round trip %v -> %s -> %v", s, got, back)
		}
	}
}

// FuzzIntervalJSON checks the direct decoder against the reference path,
// json.Unmarshal into []tunit.Time and then FromPoints, on arbitrary
// input: both give the same canonical set, or both fail.
func FuzzIntervalJSON(f *testing.F) {
	for _, seed := range []string{
		`[]`, `[1,2]`, `[0,3,10,20,30,31]`, `[1,2,3]`, `null`, ` [ 1 ,\t2 ]\n`,
		`[5,1]`, `[1,5,3,8]`, `[1,2,2,3]`, `[4,4,-3,-1]`, `[1.5,2]`, `[1e3,2000]`,
		`[01,2]`, `[-0,1]`, `[-,1]`, `[null,1]`, `[1,2]x`, `[1,2,]`, `[,1]`, `[1 2]`,
		`"nope"`, `{}`, `[[1,2]]`, `[123456789012345678,123456789012345679]`,
		`[-9223372036854775808,9223372036854775807]`, `[9223372036854775808,1]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got Set
		err := got.UnmarshalJSON(data)
		var pts []tunit.Time
		refErr := json.Unmarshal(data, &pts)
		if refErr == nil && len(pts)%2 != 0 {
			refErr = errors.New("odd boundary list")
		}
		if (err == nil) != (refErr == nil) {
			t.Fatalf("%q: direct error %v, reference error %v", data, err, refErr)
		}
		if err != nil {
			return
		}
		if want := FromPoints(pts...); !got.Equal(want) || !got.Canonical() {
			t.Fatalf("%q: direct %v, reference %v", data, got, want)
		}
	})
}
