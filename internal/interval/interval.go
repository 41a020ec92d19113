// Package interval implements the half-open interval-set algebra that
// detection ranges are built from.
//
// A detection range I(φ,P) is "usually not a contiguous range, but a union
// of intervals" (paper, Def. 2). This package represents such a union as a
// canonical Set: a sorted slice of disjoint, non-empty, non-adjacent
// half-open intervals [Lo,Hi). All operations preserve canonical form, so
// equality of detection ranges is plain structural equality.
package interval

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"fastmon/internal/tunit"
)

// Interval is the half-open range [Lo, Hi). It is non-empty iff Lo < Hi.
type Interval struct {
	Lo, Hi tunit.Time
}

// Empty reports whether iv contains no points.
func (iv Interval) Empty() bool { return iv.Lo >= iv.Hi }

// Len returns the measure Hi-Lo of the interval (0 if empty).
func (iv Interval) Len() tunit.Time {
	if iv.Empty() {
		return 0
	}
	return iv.Hi - iv.Lo
}

// Contains reports whether t lies in [Lo, Hi).
func (iv Interval) Contains(t tunit.Time) bool { return t >= iv.Lo && t < iv.Hi }

// Mid returns the midpoint of the interval, rounded down.
func (iv Interval) Mid() tunit.Time { return iv.Lo + (iv.Hi-iv.Lo)/2 }

func (iv Interval) String() string {
	return fmt.Sprintf("[%s,%s)", iv.Lo, iv.Hi)
}

// Set is a canonical union of intervals: sorted by Lo, pairwise disjoint,
// non-empty, and non-adjacent (gaps are strictly positive). The zero value
// is the empty set.
type Set struct {
	ivs []Interval
}

// New builds a canonical Set from arbitrary (possibly overlapping, empty or
// unsorted) intervals.
func New(ivs ...Interval) Set {
	s := Set{}
	if len(ivs) == 0 {
		return s
	}
	tmp := make([]Interval, 0, len(ivs))
	for _, iv := range ivs {
		if !iv.Empty() {
			tmp = append(tmp, iv)
		}
	}
	sort.Slice(tmp, func(i, j int) bool { return tmp[i].Lo < tmp[j].Lo })
	for _, iv := range tmp {
		n := len(s.ivs)
		if n > 0 && iv.Lo <= s.ivs[n-1].Hi {
			if iv.Hi > s.ivs[n-1].Hi {
				s.ivs[n-1].Hi = iv.Hi
			}
			continue
		}
		s.ivs = append(s.ivs, iv)
	}
	return s
}

// FromCanonical wraps intervals that are already canonical — sorted by Lo,
// non-empty, pairwise disjoint with strictly positive gaps — without
// sorting, merging or copying. The Set aliases ivs; the caller must not
// modify it afterwards. It is for producers whose own walk guarantees the
// form, such as the waveform XOR of the fault simulator; anything else
// goes through New.
func FromCanonical(ivs []Interval) Set { return Set{ivs: ivs} }

// FromPoints builds the set from an alternating boundary list
// lo1,hi1,lo2,hi2,... — a convenience for tests and table-driven data.
func FromPoints(pts ...tunit.Time) Set {
	if len(pts)%2 != 0 {
		panic("interval.FromPoints: odd number of boundaries")
	}
	ivs := make([]Interval, 0, len(pts)/2)
	for i := 0; i < len(pts); i += 2 {
		ivs = append(ivs, Interval{pts[i], pts[i+1]})
	}
	return New(ivs...)
}

// Empty reports whether the set contains no points.
func (s Set) Empty() bool { return len(s.ivs) == 0 }

// Count returns the number of maximal intervals.
func (s Set) Count() int { return len(s.ivs) }

// Intervals returns the canonical intervals. The returned slice must not be
// modified.
func (s Set) Intervals() []Interval { return s.ivs }

// Measure returns the total length of the set.
func (s Set) Measure() tunit.Time {
	var m tunit.Time
	for _, iv := range s.ivs {
		m += iv.Len()
	}
	return m
}

// Contains reports whether t is a member of the set.
func (s Set) Contains(t tunit.Time) bool {
	// Binary search for the first interval with Hi > t.
	i := sort.Search(len(s.ivs), func(i int) bool { return s.ivs[i].Hi > t })
	return i < len(s.ivs) && s.ivs[i].Contains(t)
}

// Overlaps reports whether s meets [lo, hi), that is whether s.Clip(lo,
// hi) is non-empty, without building the clipped set.
func (s Set) Overlaps(lo, hi tunit.Time) bool {
	if lo >= hi {
		return false
	}
	i := sort.Search(len(s.ivs), func(i int) bool { return s.ivs[i].Hi > lo })
	return i < len(s.ivs) && s.ivs[i].Lo < hi
}

// Min returns the infimum of the set. It panics on the empty set.
func (s Set) Min() tunit.Time {
	if s.Empty() {
		panic("interval: Min of empty set")
	}
	return s.ivs[0].Lo
}

// Max returns the supremum of the set. It panics on the empty set.
func (s Set) Max() tunit.Time {
	if s.Empty() {
		panic("interval: Max of empty set")
	}
	return s.ivs[len(s.ivs)-1].Hi
}

// Union returns s ∪ o.
func (s Set) Union(o Set) Set {
	if s.Empty() {
		return o
	}
	if o.Empty() {
		return s
	}
	merged := make([]Interval, 0, len(s.ivs)+len(o.ivs))
	merged = append(merged, s.ivs...)
	merged = append(merged, o.ivs...)
	return New(merged...)
}

// Intersect returns s ∩ o.
func (s Set) Intersect(o Set) Set {
	var out []Interval
	i, j := 0, 0
	for i < len(s.ivs) && j < len(o.ivs) {
		a, b := s.ivs[i], o.ivs[j]
		lo := tunit.Max(a.Lo, b.Lo)
		hi := tunit.Min(a.Hi, b.Hi)
		if lo < hi {
			out = append(out, Interval{lo, hi})
		}
		if a.Hi < b.Hi {
			i++
		} else {
			j++
		}
	}
	return Set{ivs: out}
}

// Subtract returns s \ o.
func (s Set) Subtract(o Set) Set {
	if s.Empty() || o.Empty() {
		return s
	}
	var out []Interval
	j := 0
	for _, a := range s.ivs {
		lo := a.Lo
		for j < len(o.ivs) && o.ivs[j].Hi <= lo {
			j++
		}
		k := j
		for k < len(o.ivs) && o.ivs[k].Lo < a.Hi {
			b := o.ivs[k]
			if b.Lo > lo {
				out = append(out, Interval{lo, b.Lo})
			}
			if b.Hi > lo {
				lo = b.Hi
			}
			if b.Hi >= a.Hi {
				break
			}
			k++
		}
		if lo < a.Hi {
			out = append(out, Interval{lo, a.Hi})
		}
	}
	return Set{ivs: out}
}

// Shift returns the set translated by d along the time axis. This is the
// detection-range shift of the paper: I_SR(φ,o) = I_FF(φ,o) + d.
func (s Set) Shift(d tunit.Time) Set {
	if s.Empty() || d == 0 {
		return s
	}
	out := make([]Interval, len(s.ivs))
	for i, iv := range s.ivs {
		out[i] = Interval{iv.Lo + d, iv.Hi + d}
	}
	return Set{ivs: out}
}

// Clip returns s ∩ [lo, hi). Detection intervals outside of [t_min, t_nom]
// are ignored (paper, Sec. II-A).
func (s Set) Clip(lo, hi tunit.Time) Set {
	return s.Intersect(New(Interval{lo, hi}))
}

// FilterShort removes every maximal interval shorter than minLen. This is
// the pessimistic glitch/pulse filtering of Fig. 1: detection intervals
// whose length is below the threshold are assumed to be filtered out by the
// CMOS pulse-filtering behaviour and must not count as detecting. Adjacent
// surviving intervals remain disjoint (they were already separated by a
// gap in canonical form).
func (s Set) FilterShort(minLen tunit.Time) Set {
	if minLen <= 0 || s.Empty() {
		return s
	}
	var out []Interval
	for _, iv := range s.ivs {
		if iv.Len() >= minLen {
			out = append(out, iv)
		}
	}
	return Set{ivs: out}
}

// Equal reports structural equality (which, for canonical sets, is set
// equality).
func (s Set) Equal(o Set) bool {
	if len(s.ivs) != len(o.ivs) {
		return false
	}
	for i := range s.ivs {
		if s.ivs[i] != o.ivs[i] {
			return false
		}
	}
	return true
}

// AppendBoundaries appends the sorted interval endpoints lo1,hi1,lo2,hi2,...
// to dst and returns the extended slice, so a caller can reuse one buffer
// across many sets.
func (s Set) AppendBoundaries(dst []tunit.Time) []tunit.Time {
	for _, iv := range s.ivs {
		dst = append(dst, iv.Lo, iv.Hi)
	}
	return dst
}

// Canonical reports whether the internal representation satisfies the Set
// invariants. It exists for property tests.
func (s Set) Canonical() bool {
	for i, iv := range s.ivs {
		if iv.Empty() {
			return false
		}
		if i > 0 && s.ivs[i-1].Hi >= iv.Lo {
			return false
		}
	}
	return true
}

// MarshalJSON encodes the set as a flat boundary list [lo1,hi1,lo2,hi2,...]
// (the FromPoints shape), byte for byte what json.Marshal writes for that
// list as a []tunit.Time. The representation is canonical, so marshalling
// round-trips bit-exactly — the result cache relies on this to hand back
// detection ranges identical to the ones it stored.
func (s Set) MarshalJSON() ([]byte, error) {
	b := make([]byte, 0, 2+len(s.ivs)*16)
	b = append(b, '[')
	for i, iv := range s.ivs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(iv.Lo), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(iv.Hi), 10)
	}
	return append(b, ']'), nil
}

// UnmarshalJSON decodes a boundary list and re-canonicalizes. Odd-length
// boundary lists are rejected so a truncated payload cannot decode into a
// plausible but wrong set. A flat list of integers is parsed directly and,
// when it is already canonical (every list MarshalJSON writes), kept as is;
// any other input takes the encoding/json path, with the same result.
func (s *Set) UnmarshalJSON(data []byte) error {
	if ivs, ok := parsePairs(data); ok {
		if c := (Set{ivs: ivs}); c.Canonical() {
			*s = c
		} else {
			*s = New(ivs...)
		}
		return nil
	}
	var pts []tunit.Time
	if err := json.Unmarshal(data, &pts); err != nil {
		return err
	}
	if len(pts)%2 != 0 {
		return fmt.Errorf("interval: odd boundary list (%d points)", len(pts))
	}
	*s = FromPoints(pts...)
	return nil
}

// parsePairs reads a JSON array of an even number of integers as
// consecutive [lo, hi) pairs. It reports false for anything else — odd
// lengths, null, fractions, exponents, leading zeros, integers of more
// than 18 digits, malformed JSON — leaving those to encoding/json.
func parsePairs(data []byte) ([]Interval, bool) {
	i := skipSpace(data, 0)
	if i == len(data) || data[i] != '[' {
		return nil, false
	}
	i = skipSpace(data, i+1)
	if i < len(data) && data[i] == ']' {
		return nil, skipSpace(data, i+1) == len(data)
	}
	ivs := make([]Interval, 0, (bytes.Count(data[i:], []byte{','})+1)/2)
	var lo tunit.Time
	for n := 0; ; n++ {
		v, j, ok := parseInt(data, i)
		if !ok {
			return nil, false
		}
		if n%2 == 0 {
			lo = v
		} else {
			ivs = append(ivs, Interval{lo, v})
		}
		i = skipSpace(data, j)
		if i == len(data) {
			return nil, false
		}
		switch data[i] {
		case ',':
			i = skipSpace(data, i+1)
		case ']':
			return ivs, n%2 == 1 && skipSpace(data, i+1) == len(data)
		default:
			return nil, false
		}
	}
}

// parseInt reads a JSON integer -?(0|[1-9][0-9]*) of at most 18 digits
// (so it cannot overflow) at data[i:], returning it and the index after it.
func parseInt(data []byte, i int) (tunit.Time, int, bool) {
	neg := i < len(data) && data[i] == '-'
	if neg {
		i++
	}
	start := i
	var v int64
	for ; i < len(data) && data[i] >= '0' && data[i] <= '9'; i++ {
		v = v*10 + int64(data[i]-'0')
	}
	n := i - start
	if n == 0 || n > 18 || (n > 1 && data[start] == '0') {
		return 0, 0, false
	}
	if neg {
		v = -v
	}
	return tunit.Time(v), i, true
}

// skipSpace returns the index of the first non-whitespace byte at or
// after data[i:], by JSON's definition of whitespace.
func skipSpace(data []byte, i int) int {
	for i < len(data) {
		switch data[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}

func (s Set) String() string {
	if s.Empty() {
		return "∅"
	}
	parts := make([]string, len(s.ivs))
	for i, iv := range s.ivs {
		parts[i] = iv.String()
	}
	return strings.Join(parts, "∪")
}

// Copy returns a deep copy with an exact-size backing array. It is the
// freeze step of the in-place kernel: results accumulated in oversized
// scratch buffers are copied out once before they escape into long-lived
// structures (detection tables, the schedule's combined ranges).
func (s Set) Copy() Set {
	if s.Empty() {
		return Set{}
	}
	out := make([]Interval, len(s.ivs))
	copy(out, s.ivs)
	return Set{ivs: out}
}

// In-place kernel
//
// The *Into operations below compute the same canonical results as their
// allocating counterparts but write into dst's backing array, growing it
// only when capacity runs out. dst must not alias s or o — the merge scans
// write dst left to right while still reading both inputs. They exist for
// the scheduling hot path, where the allocating operations dominated the
// profile (one sort-and-merge allocation per Union on millions of calls).

// UnionInto sets *dst = s ∪ o, reusing dst's capacity. Both inputs are
// canonical, so the union is a linear two-way merge — no sort.
func (s Set) UnionInto(o Set, dst *Set) {
	out := dst.ivs[:0]
	i, j := 0, 0
	for i < len(s.ivs) || j < len(o.ivs) {
		var iv Interval
		if j >= len(o.ivs) || (i < len(s.ivs) && s.ivs[i].Lo <= o.ivs[j].Lo) {
			iv = s.ivs[i]
			i++
		} else {
			iv = o.ivs[j]
			j++
		}
		if n := len(out); n > 0 && iv.Lo <= out[n-1].Hi {
			if iv.Hi > out[n-1].Hi {
				out[n-1].Hi = iv.Hi
			}
			continue
		}
		out = append(out, iv)
	}
	dst.ivs = out
}

// ShiftClipInto sets *dst = (s + d) ∩ [lo, hi) in one pass, reusing dst's
// capacity. It fuses the Shift+Clip pair of the monitor-window algebra
// (I_SR + d clipped to the observation window), which the schedule's
// Step 0 evaluates once per (fault, delay element).
func (s Set) ShiftClipInto(d tunit.Time, lo, hi tunit.Time, dst *Set) {
	out := dst.ivs[:0]
	if lo < hi {
		for _, iv := range s.ivs {
			l, h := iv.Lo+d, iv.Hi+d
			if h <= lo {
				continue
			}
			if l >= hi {
				break
			}
			if l < lo {
				l = lo
			}
			if h > hi {
				h = hi
			}
			if l < h {
				out = append(out, Interval{l, h})
			}
		}
	}
	dst.ivs = out
}

// ClipInto sets *dst = s ∩ [lo, hi), reusing dst's capacity.
func (s Set) ClipInto(lo, hi tunit.Time, dst *Set) {
	out := dst.ivs[:0]
	if lo < hi {
		for _, iv := range s.ivs {
			if iv.Hi <= lo {
				continue
			}
			if iv.Lo >= hi {
				break
			}
			clo, chi := tunit.Max(iv.Lo, lo), tunit.Min(iv.Hi, hi)
			if clo < chi {
				out = append(out, Interval{clo, chi})
			}
		}
	}
	dst.ivs = out
}

// Accum accumulates a running union without per-step allocation by
// ping-ponging two grow-only buffers. The zero value is ready to use;
// Reset rewinds it for reuse without releasing the buffers.
type Accum struct{ cur, tmp Set }

// Reset empties the accumulator, keeping its buffers.
func (a *Accum) Reset() { a.cur.ivs = a.cur.ivs[:0] }

// Add unions s into the accumulator.
func (a *Accum) Add(s Set) {
	if s.Empty() {
		return
	}
	a.cur.UnionInto(s, &a.tmp)
	a.cur, a.tmp = a.tmp, a.cur
}

// Empty reports whether nothing non-empty was added since the last Reset.
func (a *Accum) Empty() bool { return a.cur.Empty() }

// Result returns the accumulated union. The Set aliases the accumulator's
// buffer: it is invalidated by the next Add or Reset. Use Copy to freeze
// a result that outlives the accumulator.
func (a *Accum) Result() Set { return a.cur }

// Copy returns an exact-size deep copy of the accumulated union.
func (a *Accum) Copy() Set { return a.cur.Copy() }
