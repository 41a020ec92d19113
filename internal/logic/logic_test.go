package logic

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"fastmon/internal/circuit"
	"fastmon/internal/fault"
	"fastmon/internal/sim"
)

// evalScalar is a trusted single-vector reference evaluator.
func evalScalar(c *circuit.Circuit, src []bool) []bool {
	val := make([]bool, len(c.Gates))
	for i, id := range c.Sources() {
		val[id] = src[i]
	}
	ins := make([]bool, 0, 8)
	for _, id := range c.Topo() {
		g := &c.Gates[id]
		ins = ins[:0]
		for _, f := range g.Fanin {
			ins = append(ins, val[f])
		}
		val[id] = g.Kind.Eval(ins)
	}
	return val
}

func randomPatterns(rng *rand.Rand, nsrc, n int) []sim.Pattern {
	ps := make([]sim.Pattern, n)
	for i := range ps {
		ps[i] = sim.Pattern{V1: make([]bool, nsrc), V2: make([]bool, nsrc)}
		for j := 0; j < nsrc; j++ {
			ps[i].V1[j] = rng.Intn(2) == 0
			ps[i].V2[j] = rng.Intn(2) == 0
		}
	}
	return ps
}

func TestEvalVectorsMatchesScalar(t *testing.T) {
	c := circuit.MustParseBench("s27", circuit.S27)
	rng := rand.New(rand.NewSource(1))
	nsrc := len(c.Sources())
	ps := randomPatterns(rng, nsrc, 64)
	src1, src2, n := packInto(nil, nil, ps, 0, nsrc)
	if n != 64 {
		t.Fatalf("packed %d", n)
	}
	v1 := evalVectorsInto(nil, c, c.Sources(), src1)
	v2 := evalVectorsInto(nil, c, c.Sources(), src2)
	for k := 0; k < 64; k++ {
		want1 := evalScalar(c, ps[k].V1)
		want2 := evalScalar(c, ps[k].V2)
		for id := range c.Gates {
			if got := v1[id]>>uint(k)&1 == 1; got != want1[id] {
				t.Fatalf("pattern %d gate %s V1: got %v want %v", k, c.Gates[id].Name, got, want1[id])
			}
			if got := v2[id]>>uint(k)&1 == 1; got != want2[id] {
				t.Fatalf("pattern %d gate %s V2: got %v want %v", k, c.Gates[id].Name, got, want2[id])
			}
		}
	}
}

func TestPackPartialBlock(t *testing.T) {
	c := circuit.MustParseBench("s27", circuit.S27)
	rng := rand.New(rand.NewSource(2))
	ps := randomPatterns(rng, len(c.Sources()), 10)
	_, _, n := packInto(nil, nil, ps, 8, len(c.Sources()))
	if n != 2 {
		t.Fatalf("packed %d, want 2", n)
	}
	b := NewBatch(c, ps, 8)
	if b.N != 2 || b.mask() != 0b11 {
		t.Fatalf("batch N=%d mask=%b", b.N, b.mask())
	}
}

// detectScalar is a trusted per-pattern transition-fault detector: the site
// must see the fault-polarity transition and forcing the site to its V1
// value in the V2 evaluation must change some observation point.
func detectScalar(c *circuit.Circuit, p sim.Pattern, f fault.Fault) bool {
	v1 := evalScalar(c, p.V1)
	v2 := evalScalar(c, p.V2)
	g := &c.Gates[f.Gate]
	siteOf := func(v []bool) bool {
		if f.Pin < 0 {
			return v[f.Gate]
		}
		return v[g.Fanin[f.Pin]]
	}
	s1, s2 := siteOf(v1), siteOf(v2)
	if f.Rising && !(s1 == false && s2 == true) {
		return false
	}
	if !f.Rising && !(s1 == true && s2 == false) {
		return false
	}
	// Faulty evaluation: recompute every gate; at the fault gate, override.
	fval := make([]bool, len(c.Gates))
	for i, id := range c.Sources() {
		fval[id] = p.V2[i]
	}
	ins := make([]bool, 0, 8)
	for _, id := range c.Topo() {
		gg := &c.Gates[id]
		ins = ins[:0]
		for _, fi := range gg.Fanin {
			ins = append(ins, fval[fi])
		}
		if id == f.Gate && f.Pin >= 0 {
			ins[f.Pin] = s1
		}
		fval[id] = gg.Kind.Eval(ins)
		if id == f.Gate && f.Pin < 0 {
			fval[id] = s1
		}
	}
	for _, tap := range c.Taps() {
		if fval[tap.Gate] != v2[tap.Gate] {
			return true
		}
	}
	return false
}

// sharedNets is a circuit in which one net drives two pins of one gate,
// as a parsed netlist may wire it: a pin fault there must force only its
// own pin.
func sharedNets(t *testing.T) *circuit.Circuit {
	t.Helper()
	c := circuit.New("shared")
	a := c.AddGate("a", circuit.Input)
	b := c.AddGate("b", circuit.Input)
	and := c.AddGate("and", circuit.And, a, a, b)
	xor := c.AddGate("xor", circuit.Xor, a, b, a)
	ff := c.AddGate("ff", circuit.DFF, xor)
	nor := c.AddGate("nor", circuit.Nor, and, ff, and)
	c.MarkOutput(and)
	c.MarkOutput(nor)
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestDetectTransitionMatchesScalar(t *testing.T) {
	for i, c := range []*circuit.Circuit{circuit.MustParseBench("s27", circuit.S27), sharedNets(t)} {
		rng := rand.New(rand.NewSource(int64(3 + i)))
		ps := randomPatterns(rng, len(c.Sources()), 64)
		b := NewBatch(c, ps, 0)
		detected := 0
		for _, f := range fault.Universe(c) {
			got := b.DetectTransition(f)
			for k := 0; k < 64; k++ {
				want := detectScalar(c, ps[k], f)
				if gotK := got>>uint(k)&1 == 1; gotK != want {
					t.Fatalf("%s fault %s pattern %d: got %v want %v", c.Name, f.Name(c), k, gotK, want)
				}
			}
			if got != 0 {
				detected++
			}
		}
		if detected == 0 {
			t.Fatalf("%s: no fault detected", c.Name)
		}
		// Every probe restores the good words it patched into V2.
		if fresh := NewBatch(c, ps, 0); !slices.Equal(b.V2, fresh.V2) {
			t.Fatalf("%s: V2 not restored after the probes", c.Name)
		}
	}
}

// TestDetectTransitionAllocFree: once a loaded Batch has probed each fault
// once (growing its undo list), probing allocates nothing.
func TestDetectTransitionAllocFree(t *testing.T) {
	c := circuit.MustGenerate(circuit.GenSpec{Name: "g", Gates: 400, FFs: 32, Inputs: 10, Outputs: 8, Depth: 14, Seed: 9})
	rng := rand.New(rand.NewSource(6))
	b := NewBatch(c, randomPatterns(rng, len(c.Sources()), 64), 0)
	faults := fault.Universe(c)
	probe := func() {
		for _, f := range faults {
			b.DetectTransition(f)
		}
	}
	probe()
	if allocs := testing.AllocsPerRun(5, probe); allocs != 0 {
		t.Fatalf("%v allocations per pass over %d faults, want 0", allocs, len(faults))
	}
}

func TestDetectTransitionMaskRespected(t *testing.T) {
	c := circuit.MustParseBench("s27", circuit.S27)
	rng := rand.New(rand.NewSource(4))
	ps := randomPatterns(rng, len(c.Sources()), 5)
	b := NewBatch(c, ps, 0)
	for _, f := range fault.Universe(c) {
		if b.DetectTransition(f)&^b.mask() != 0 {
			t.Fatalf("detection outside valid mask for %s", f.Name(c))
		}
	}
}

func TestPropDetectConsistencyGenerated(t *testing.T) {
	cgen := circuit.MustGenerate(circuit.GenSpec{Name: "g", Gates: 80, FFs: 8, Inputs: 6, Outputs: 5, Depth: 8, Seed: 21})
	rng := rand.New(rand.NewSource(5))
	faults := fault.Universe(cgen)
	f := func() bool {
		ps := randomPatterns(rng, len(cgen.Sources()), 16)
		b := NewBatch(cgen, ps, 0)
		// Spot-check 10 random faults against the scalar reference.
		for trial := 0; trial < 10; trial++ {
			fl := faults[rng.Intn(len(faults))]
			got := b.DetectTransition(fl)
			k := rng.Intn(16)
			if got>>uint(k)&1 == 1 != detectScalar(cgen, ps[k], fl) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
