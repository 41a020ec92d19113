package atpg

import (
	"context"
	"runtime"
	"testing"

	"fastmon/internal/circuit"
	"fastmon/internal/fault"
)

// benchWorkload is a paper-suite-style netlist big enough that the
// deterministic phase dominates: the random phase is disabled so every
// fault takes the PODEM produce/commit path the parallel design targets.
func benchWorkload(b *testing.B) (*circuit.Circuit, []fault.Fault, Config) {
	b.Helper()
	c := circuit.MustGenerate(circuit.GenSpec{
		Name: "gbench", Gates: 500, FFs: 40, Inputs: 20, Outputs: 14, Depth: 14, Seed: 29})
	faults := fault.Universe(c)
	cfg := Config{RandomBatches: 0, MaxBacktracks: 300, Seed: 5, Compact: true}
	return c, faults, cfg
}

// BenchmarkGenerate measures the deterministic ATPG phase serial vs
// speculative-parallel (8 workers). benchjson pairs the /parallel and
// /serial variants into a speedup; on multi-core runners the parallel
// variant shows the ordered-commit scaling, on single-CPU boxes the pair
// degenerates to ~1x and documents the overhead instead.
func BenchmarkGenerate(b *testing.B) {
	c, faults, cfg := benchWorkload(b)
	ctx := context.Background()
	run := func(workers int) func(*testing.B) {
		return func(b *testing.B) {
			old := runtime.GOMAXPROCS(8)
			defer runtime.GOMAXPROCS(old)
			cfg := cfg
			cfg.Workers = workers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := Generate(ctx, c, faults, cfg); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("serial", run(1))
	b.Run("parallel", run(8))
}

// benchSink keeps BenchmarkPodem's result live.
var benchSink int

// BenchmarkPodem measures the per-fault kernel of the deterministic phase
// on the benchWorkload netlist: solveFault, the function produceCandidate
// runs, for every fault of its universe, so each op times the PODEM
// prefix, the SAT proofs and the resumed searches of the launch vector
// and the pre-transition site value, without the don't-care fill and
// without fault dropping, so every op does the same work. Machines come
// from the analysis pool, and one prover serves every query, as a
// worker's does. Two passes before the timer starts grow their scratch
// slices: a pooled machine can serve a fault in either role, so one pass
// can leave a machine short of a fault it meets next. The kernel then
// allocates nothing: the committed 0 allocs/op is gated by benchjson
// -compare.
func BenchmarkPodem(b *testing.B) {
	c, faults, cfg := benchWorkload(b)
	an := newAnalysis(c)
	p := &prover{analysis: an}
	pass := func() int {
		bt := 0
		for _, f := range faults {
			cd, m, jm := solveFault(an, p, f, cfg.MaxBacktracks)
			bt += cd.runBt + cd.jBt
			if jm != nil {
				an.release(jm)
			}
			an.release(m)
		}
		return bt
	}
	pass()
	pass()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = pass()
	}
}
