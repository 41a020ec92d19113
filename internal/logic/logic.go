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

// evalVectorsInto computes the good value of every gate for up to 64
// source assignments packed bitwise: src[i] holds the values of source
// srcs[i] across the 64 vectors. The result, indexed by gate ID, goes into
// val (grown as needed), so Batch reuse avoids reallocating the per-gate
// planes on every 64-pattern chunk.
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
		val[id] = evalWord(g.Kind, g.Fanin, val, -1, 0)
	}
	return val
}

// evalWord evaluates a gate over the words of its fanin nets in val. Pin
// pin reads x instead of its net (pass -1 for none): a pin fault forces
// one pin, and a net wired to two pins of the gate keeps its value on the
// other.
func evalWord(kind circuit.Kind, fanin []int, val []uint64, pin int, x uint64) uint64 {
	in := func(p int) uint64 {
		if p == pin {
			return x
		}
		return val[fanin[p]]
	}
	switch kind {
	case circuit.Buf:
		return in(0)
	case circuit.Not:
		return ^in(0)
	case circuit.And, circuit.Nand:
		v := ^uint64(0)
		for p := range fanin {
			v &= in(p)
		}
		if kind == circuit.Nand {
			return ^v
		}
		return v
	case circuit.Or, circuit.Nor:
		v := uint64(0)
		for p := range fanin {
			v |= in(p)
		}
		if kind == circuit.Nor {
			return ^v
		}
		return v
	case circuit.Xor, circuit.Xnor:
		v := uint64(0)
		for p := range fanin {
			v ^= in(p)
		}
		if kind == circuit.Xnor {
			return ^v
		}
		return v
	}
	panic("logic: evalWord on " + kind.String())
}

// packInto converts up to 64 pattern pairs (starting at index start) into
// bit-planes: src1[i]/src2[i] carry the V1/V2 values of source i across
// the packed patterns. The planes go into the given buffers (grown as
// needed). It returns them and the number of patterns packed.
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
// internal buffer. DetectTransition patches V2 while it runs, so a Batch
// is unsafe for concurrent use; all callers (the ATPG committer,
// compaction and coverage verification) probe faults serially.
type Batch struct {
	C      *circuit.Circuit
	N      int // number of valid patterns (low bits)
	V1, V2 []uint64
	srcs   []int

	// Pack scratch, reused across Load calls.
	src1, src2 []uint64

	// DetectTransition scratch, built once per circuit: tap marks the
	// gates observed at a tap, wl is the event queue (empty between
	// calls), and undo lists the gates patched in V2 with their good
	// words, in patch order.
	tap  []bool
	wl   *circuit.Worklist
	undo []saved
}

// saved is one undo entry: a gate patched in V2 and its good word.
type saved struct {
	id   int
	good uint64
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
		b.srcs = c.Sources()
		b.tap = make([]bool, len(c.Gates))
		for _, t := range c.Taps() {
			b.tap[t.Gate] = true
		}
		b.wl = c.NewWorklist()
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
// The faulty words are patched into V2 in place, gate by gate as the
// effect propagates through the worklist, and the good words are restored
// before the call returns. Not safe for concurrent calls on one Batch.
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

	// Faulty V2 values: site stuck at its V1 value. A pin fault forces
	// only its pin; the net it reads may feed other pins and gates.
	fw := sv1
	if f.Pin >= 0 {
		g := &b.C.Gates[f.Gate]
		fw = evalWord(g.Kind, g.Fanin, b.V2, f.Pin, sv1)
	}
	if fw == b.V2[f.Gate] {
		return 0
	}
	b.patch(f.Gate, fw)
	for {
		id, ok := b.wl.Pop()
		if !ok {
			break
		}
		g := &b.C.Gates[id]
		if w := evalWord(g.Kind, g.Fanin, b.V2, -1, 0); w != b.V2[id] {
			b.patch(id, w)
		}
	}

	// Only patched gates differ from the good simulation; each is
	// patched once, since the worklist pops a gate at most once.
	var det uint64
	for _, u := range b.undo {
		if b.tap[u.id] {
			det |= b.V2[u.id] ^ u.good
		}
		b.V2[u.id] = u.good
	}
	b.undo = b.undo[:0]
	return det & active
}

// patch sets gate id's V2 word to the faulty word w, saves its good word
// for the undo, and queues its fanouts.
func (b *Batch) patch(id int, w uint64) {
	b.undo = append(b.undo, saved{id, b.V2[id]})
	b.V2[id] = w
	b.wl.PushFanout(id)
}
