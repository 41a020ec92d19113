// Package logic implements 64-way bit-parallel zero-delay simulation of
// gate-level circuits. It is the workhorse behind the ATPG substrate:
// random-pattern evaluation, transition-fault detection for fault
// dropping, and static test compaction all run 64 pattern pairs per word.
package logic

import (
	"fastmon/internal/circuit"
	"fastmon/internal/fault"
	"fastmon/internal/sim"
)

// EvalVectors computes the good value of every gate for up to 64 source
// assignments packed bitwise: src[i] holds the values of the i-th source
// (circuit source order) across the 64 vectors. The returned slice is
// indexed by gate ID.
func EvalVectors(c *circuit.Circuit, src []uint64) []uint64 {
	return evalVectorsInto(nil, c, c.Sources(), src)
}

// evalVectorsInto is EvalVectors with a caller-provided destination buffer
// (grown as needed) and pre-fetched source list, so Batch reuse avoids
// reallocating the per-gate planes on every 64-pattern chunk.
func evalVectorsInto(val []uint64, c *circuit.Circuit, srcs []int, src []uint64) []uint64 {
	if cap(val) < len(c.Gates) {
		val = make([]uint64, len(c.Gates))
	}
	val = val[:len(c.Gates)]
	for i := range val {
		val[i] = 0
	}
	for i, id := range srcs {
		val[id] = src[i]
	}
	for _, id := range c.Topo() {
		g := &c.Gates[id]
		val[id] = evalWord(g.Kind, g.Fanin, val)
	}
	return val
}

func evalWord(kind circuit.Kind, fanin []int, val []uint64) uint64 {
	switch kind {
	case circuit.Buf:
		return val[fanin[0]]
	case circuit.Not:
		return ^val[fanin[0]]
	case circuit.And, circuit.Nand:
		v := ^uint64(0)
		for _, f := range fanin {
			v &= val[f]
		}
		if kind == circuit.Nand {
			return ^v
		}
		return v
	case circuit.Or, circuit.Nor:
		v := uint64(0)
		for _, f := range fanin {
			v |= val[f]
		}
		if kind == circuit.Nor {
			return ^v
		}
		return v
	case circuit.Xor, circuit.Xnor:
		v := uint64(0)
		for _, f := range fanin {
			v ^= val[f]
		}
		if kind == circuit.Xnor {
			return ^v
		}
		return v
	}
	panic("logic: evalWord on " + kind.String())
}

// Pack converts up to 64 pattern pairs (starting at index start) into
// bit-planes: src1[i]/src2[i] carry the V1/V2 values of source i across
// the packed patterns. It returns the number of patterns packed.
func Pack(patterns []sim.Pattern, start int, nsrc int) (src1, src2 []uint64, n int) {
	return packInto(nil, nil, patterns, start, nsrc)
}

// packInto is Pack with caller-provided plane buffers (grown as needed).
func packInto(src1, src2 []uint64, patterns []sim.Pattern, start, nsrc int) ([]uint64, []uint64, int) {
	if cap(src1) < nsrc {
		src1 = make([]uint64, nsrc)
	}
	if cap(src2) < nsrc {
		src2 = make([]uint64, nsrc)
	}
	src1, src2 = src1[:nsrc], src2[:nsrc]
	for i := 0; i < nsrc; i++ {
		src1[i], src2[i] = 0, 0
	}
	n := 0
	for ; n < 64 && start+n < len(patterns); n++ {
		p := patterns[start+n]
		for i := 0; i < nsrc; i++ {
			if p.V1[i] {
				src1[i] |= 1 << uint(n)
			}
			if p.V2[i] {
				src2[i] |= 1 << uint(n)
			}
		}
	}
	return src1, src2, n
}

// Batch holds the good values of one packed pattern block for both the
// initialization vector (V1) and the launch/capture vector (V2).
//
// A Batch may be reused across blocks via Load, which recycles every
// internal buffer. The DetectTransition scratch makes a Batch unsafe for
// concurrent use; all callers (the ATPG committer, compaction and
// coverage verification) probe faults serially.
type Batch struct {
	C      *circuit.Circuit
	N      int // number of valid patterns (low bits)
	V1, V2 []uint64
	taps   []circuit.Tap
	srcs   []int

	// Pack scratch, reused across Load calls.
	src1, src2 []uint64

	// DetectTransition scratch: the faulty-value overlay as a versioned
	// array (fver[id] == ver marks fval[id] live) instead of a per-call
	// map, and a reusable fanin-value buffer. Overlay clearing is O(1) —
	// bump ver.
	fval []uint64
	fver []int64
	ver  int64
	vals []uint64
}

// NewBatch evaluates a packed block of pattern pairs.
func NewBatch(c *circuit.Circuit, patterns []sim.Pattern, start int) *Batch {
	return new(Batch).Load(c, patterns, start)
}

// Load (re)targets the batch at a packed block of pattern pairs, reusing
// all internal buffers from previous loads. It returns the batch for
// chaining.
func (b *Batch) Load(c *circuit.Circuit, patterns []sim.Pattern, start int) *Batch {
	if b.C != c {
		b.taps = c.Taps()
		b.srcs = c.Sources()
		// Overlay versions are per-circuit (indexed by gate ID): reset them
		// when the circuit changes size or identity.
		b.fval = make([]uint64, len(c.Gates))
		b.fver = make([]int64, len(c.Gates))
		b.ver = 0
		b.C = c
	}
	b.src1, b.src2, b.N = packInto(b.src1, b.src2, patterns, start, len(b.srcs))
	b.V1 = evalVectorsInto(b.V1, c, b.srcs, b.src1)
	b.V2 = evalVectorsInto(b.V2, c, b.srcs, b.src2)
	return b
}

// mask returns the valid-pattern mask of the batch.
func (b *Batch) mask() uint64 {
	if b.N >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(b.N)) - 1
}

// siteValues returns the V1 and V2 good values of the fault site signal.
func (b *Batch) siteValues(f fault.Fault) (v1, v2 uint64) {
	g := &b.C.Gates[f.Gate]
	if f.Pin < 0 {
		return b.V1[f.Gate], b.V2[f.Gate]
	}
	src := g.Fanin[f.Pin]
	return b.V1[src], b.V2[src]
}

// DetectTransition returns the bitmask of patterns in the batch that
// detect the transition fault corresponding to the small-delay fault site:
// the site must launch the faulty transition (V1→V2 matching the fault
// polarity) and the gross-delay effect (site stuck at its V1 value during
// capture) must propagate to an observation point.
//
// Not safe for concurrent calls on one Batch (shared overlay scratch).
func (b *Batch) DetectTransition(f fault.Fault) uint64 {
	sv1, sv2 := b.siteValues(f)
	var active uint64
	if f.Rising {
		active = ^sv1 & sv2 // 0 → 1 transition at the site
	} else {
		active = sv1 & ^sv2 // 1 → 0 transition
	}
	active &= b.mask()
	if active == 0 {
		return 0
	}

	// Faulty V2 values: site stuck at its V1 value. Propagate through the
	// fanout cone only, tracking diverged gates in the versioned overlay.
	b.ver++
	ver := b.ver
	g := &b.C.Gates[f.Gate]
	var fg uint64
	if f.Pin < 0 {
		fg = sv1 // output forced to the initialization value
	} else {
		vals := b.faninVals(g.Fanin)
		vals[f.Pin] = sv1
		fg = evalLocal(g.Kind, vals)
	}
	if fg == b.V2[f.Gate] {
		return 0
	}
	b.fval[f.Gate], b.fver[f.Gate] = fg, ver

	for _, id := range b.C.FanoutCone(f.Gate) {
		cg := &b.C.Gates[id]
		touched := false
		for _, fi := range cg.Fanin {
			if b.fver[fi] == ver {
				touched = true
				break
			}
		}
		if !touched {
			continue
		}
		vals := b.faninVals(cg.Fanin)
		for p, fi := range cg.Fanin {
			if b.fver[fi] == ver {
				vals[p] = b.fval[fi]
			}
		}
		nv := evalLocal(cg.Kind, vals)
		if nv != b.V2[id] {
			b.fval[id], b.fver[id] = nv, ver
		}
	}

	var det uint64
	for _, tap := range b.taps {
		if b.fver[tap.Gate] == ver {
			det |= b.fval[tap.Gate] ^ b.V2[tap.Gate]
		}
	}
	return det & active
}

// faninVals fills the batch's reusable fanin-value buffer with the good V2
// values of the given fanin list.
func (b *Batch) faninVals(fanin []int) []uint64 {
	if cap(b.vals) < len(fanin) {
		b.vals = make([]uint64, len(fanin))
	}
	b.vals = b.vals[:len(fanin)]
	for p, fi := range fanin {
		b.vals[p] = b.V2[fi]
	}
	return b.vals
}

func evalLocal(kind circuit.Kind, vals []uint64) uint64 {
	switch kind {
	case circuit.Buf:
		return vals[0]
	case circuit.Not:
		return ^vals[0]
	case circuit.And, circuit.Nand:
		v := ^uint64(0)
		for _, x := range vals {
			v &= x
		}
		if kind == circuit.Nand {
			return ^v
		}
		return v
	case circuit.Or, circuit.Nor:
		v := uint64(0)
		for _, x := range vals {
			v |= x
		}
		if kind == circuit.Nor {
			return ^v
		}
		return v
	case circuit.Xor, circuit.Xnor:
		v := uint64(0)
		for _, x := range vals {
			v ^= x
		}
		if kind == circuit.Xnor {
			return ^v
		}
		return v
	}
	panic("logic: evalLocal on " + kind.String())
}
