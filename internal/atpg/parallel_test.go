package atpg

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"fastmon/internal/circuit"
	"fastmon/internal/fault"
)

// withProcs raises GOMAXPROCS so worker clamping does not collapse the
// parallel paths to one goroutine on single-CPU test machines.
func withProcs(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// diffCircuits builds the differential workload: the two bench netlists
// plus generated circuits of varying shape.
func diffCircuits(t *testing.T) []*circuit.Circuit {
	t.Helper()
	out := []*circuit.Circuit{
		circuit.MustParseBench("s27", circuit.S27),
		circuit.MustParseBench("c17", circuit.C17),
	}
	specs := []circuit.GenSpec{
		{Name: "g150", Gates: 150, FFs: 8, Inputs: 12, Outputs: 6, Depth: 8, Seed: 3},
		{Name: "g300", Gates: 300, FFs: 24, Inputs: 10, Outputs: 8, Depth: 12, Seed: 17},
	}
	if !testing.Short() {
		specs = append(specs,
			circuit.GenSpec{Name: "g600", Gates: 600, FFs: 40, Inputs: 16, Outputs: 12, Depth: 16, Seed: 99})
	}
	for _, s := range specs {
		out = append(out, circuit.MustGenerate(s))
	}
	return out
}

// TestGenerateParallelMatchesSerial is the tentpole differential: the
// speculative ordered-commit deterministic phase must emit byte-identical
// patterns and Stats at every worker count.
func TestGenerateParallelMatchesSerial(t *testing.T) {
	withProcs(t, 8)
	ctx := context.Background()
	for _, c := range diffCircuits(t) {
		faults := fault.Universe(c)
		cfg := DefaultConfig(7)
		cfg.Workers = 1
		base, baseStats, err := Generate(ctx, c, faults, cfg)
		if err != nil {
			t.Fatalf("%s serial: %v", c.Name, err)
		}
		for _, w := range []int{2, 8} {
			cfg.Workers = w
			got, gotStats, err := Generate(ctx, c, faults, cfg)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", c.Name, w, err)
			}
			if !reflect.DeepEqual(base, got) {
				t.Fatalf("%s workers=%d: pattern set diverged from serial (%d vs %d patterns)",
					c.Name, w, len(base), len(got))
			}
			if baseStats != gotStats {
				t.Fatalf("%s workers=%d: stats diverged:\nserial   %+v\nparallel %+v",
					c.Name, w, baseStats, gotStats)
			}
		}
	}
}

// TestGenerateParallelSkipsRandomPhase replays the differential with the
// random phase disabled, so every fault takes the deterministic
// produce/commit path.
func TestGenerateParallelSkipsRandomPhase(t *testing.T) {
	withProcs(t, 8)
	ctx := context.Background()
	c := circuit.MustGenerate(circuit.GenSpec{
		Name: "gdet", Gates: 400, FFs: 24, Inputs: 12, Outputs: 8, Depth: 10, Seed: 41})
	faults := fault.Universe(c)
	cfg := Config{RandomBatches: 0, MaxBacktracks: 600, Seed: 11, Compact: true, Workers: 1}
	base, baseStats, err := Generate(ctx, c, faults, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if baseStats.RandomDetected != 0 {
		t.Fatalf("random phase ran with RandomBatches=0: %+v", baseStats)
	}
	for _, w := range []int{2, 8} {
		cfg.Workers = w
		got, gotStats, err := Generate(ctx, c, faults, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base, got) || baseStats != gotStats {
			t.Fatalf("workers=%d diverged from serial", w)
		}
	}
}

// TestFillScheduleIndependent is the property test for the re-keyed
// don't-care fill: the bit stream of a fault index depends only on
// (seed, index), never on which faults were filled before it or on any
// interleaving of draws.
func TestFillScheduleIndependent(t *testing.T) {
	const seed, nFaults, nBits = int64(123), 64, 40
	want := make([][]bool, nFaults)
	for fi := 0; fi < nFaults; fi++ {
		rng := newFillRNG(seed, fi)
		bits := make([]bool, nBits)
		for k := range bits {
			bits[k] = rng.bit()
		}
		want[fi] = bits
	}
	// Redraw in a shuffled order (a different commit schedule): streams
	// must not change.
	perm := rand.New(rand.NewSource(9)).Perm(nFaults)
	for _, fi := range perm {
		rng := newFillRNG(seed, fi)
		for k := 0; k < nBits; k++ {
			if rng.bit() != want[fi][k] {
				t.Fatalf("fault %d bit %d changed with draw order", fi, k)
			}
		}
	}
	// Distinct faults must get distinct streams (no accidental reuse).
	same := 0
	for fi := 1; fi < nFaults; fi++ {
		if reflect.DeepEqual(want[fi], want[0]) {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d fault streams collide with stream 0", same)
	}
}

// TestProduceCandidatePure checks that speculative production is a pure
// function of (analysis, fault, index, config): concurrent producers
// racing over the same pooled analysis, each with its own prover that has
// served other faults than the serial one's, yield exactly the serial
// result, SAT verdicts included.
func TestProduceCandidatePure(t *testing.T) {
	withProcs(t, 8)
	c := circuit.MustGenerate(circuit.GenSpec{
		Name: "gpure", Gates: 250, FFs: 16, Inputs: 10, Outputs: 8, Depth: 10, Seed: 5})
	faults := fault.Universe(c)
	cfg := DefaultConfig(77)
	an := newAnalysis(c)
	want := make([]candidate, len(faults))
	p := &prover{analysis: an}
	for fi, f := range faults {
		want[fi] = produceCandidate(an, p, f, fi, cfg)
	}
	got := make([]candidate, len(faults))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := &prover{analysis: an}
			for fi := w; fi < len(faults); fi += 8 {
				got[fi] = produceCandidate(an, p, faults[fi], fi, cfg)
			}
		}(w)
	}
	wg.Wait()
	var sat satCounts
	for fi := range faults {
		if !reflect.DeepEqual(want[fi], got[fi]) {
			t.Fatalf("fault %d: concurrent candidate diverged from serial", fi)
		}
		sat.add(want[fi].sat)
	}
	// The SAT path must be drawn: proofs, and queries that resume PODEM.
	if sat.untestable == 0 || sat.calls == sat.untestable {
		t.Fatalf("SAT path not exercised: %+v", sat)
	}
	t.Logf("SAT: %+v", sat)
}

// TestGenerateWorkersOutsideCacheKey pins the determinism contract that
// lets Workers stay out of the cache key: two configs differing only in
// Workers must hash identically.
func TestGenerateWorkersOutsideCacheKey(t *testing.T) {
	c := circuit.MustParseBench("s27", circuit.S27)
	faults := fault.Universe(c)
	a := DefaultConfig(1)
	b := DefaultConfig(1)
	b.Workers = 8
	if cacheKey(c, faults, a) != cacheKey(c, faults, b) {
		t.Fatal("Workers leaked into the atpg cache key")
	}
	b.Seed = 2
	if cacheKey(c, faults, a) == cacheKey(c, faults, b) {
		t.Fatal("seed change did not change the atpg cache key")
	}
}

// TestGenerateCancelParallel checks cancellation mid-phase returns a
// stage-attributed error at every worker count without hanging.
func TestGenerateCancelParallel(t *testing.T) {
	withProcs(t, 8)
	c := circuit.MustGenerate(circuit.GenSpec{
		Name: "gcancel", Gates: 400, FFs: 24, Inputs: 12, Outputs: 8, Depth: 10, Seed: 13})
	faults := fault.Universe(c)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, w := range []int{1, 8} {
		cfg := DefaultConfig(3)
		cfg.Workers = w
		_, _, err := Generate(ctx, c, faults, cfg)
		if err == nil {
			t.Fatalf("workers=%d: no error from canceled context", w)
		}
	}
}
