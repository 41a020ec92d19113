package schedule

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"fastmon/internal/circuit"
	"fastmon/internal/detect"
	"fastmon/internal/fmerr"
	"fastmon/internal/interval"
	"fastmon/internal/tunit"
)

// benchData builds a randomized-but-deterministic detection-data set hard
// enough that Build spends its time in the covering solvers: every fault
// is detectable under a few patterns in a random frequency window, so
// Step 1 solves a dense partial cover and Step 2 runs one set-cover per
// selected period.
func benchData(nFaults, nPatterns int) ([]detect.FaultData, Options) {
	cfg := detect.Config{Clk: 1000, TMin: 100}
	rng := rand.New(rand.NewSource(1234))
	data := make([]detect.FaultData, nFaults)
	for i := range data {
		nPer := 2 + rng.Intn(3)
		for p := 0; p < nPer; p++ {
			lo := tunit.Time(100 + rng.Intn(700))
			hi := lo + tunit.Time(60+rng.Intn(240))
			data[i].Per = append(data[i].Per, detect.PatternRange{
				Pattern: rng.Intn(nPatterns),
				FF:      interval.FromPoints(lo, hi),
			})
		}
	}
	return data, Options{Cfg: cfg, Method: ILP, Coverage: 0.97}
}

func benchWorkers() int {
	if n := runtime.GOMAXPROCS(0); n > 1 {
		return n
	}
	return 2
}

// BenchmarkScheduleBuild pits the fully serial schedule construction
// (Workers=1 everywhere: Step-2 loop and inner solvers) against the
// parallel pipeline (CI pairs the variants into BENCH_schedule.json).
func BenchmarkScheduleBuild(b *testing.B) {
	data, opt := benchData(300, 16)
	run := func(workers int) func(*testing.B) {
		return func(b *testing.B) {
			o := opt
			o.Workers = workers
			for i := 0; i < b.N; i++ {
				s, err := Build(context.Background(), data, o)
				if err != nil {
					b.Fatal(err)
				}
				if !s.FreqOptimal {
					b.Fatal("benchmark instance must solve to optimality")
				}
			}
		}
	}
	b.Run("serial", run(1))
	b.Run("parallel", run(benchWorkers()))
}

// BenchmarkProblemSchedules builds the seven schedules Tables II–III take
// from one target set with monitors (conventional, heuristic and ILP at
// full coverage, then ILP at 99, 98, 95 and 90 %) at one worker, through
// a fresh Problem per iteration: the schedules of one iteration share
// Step 0, and no iteration reuses another's. The detection data is the
// flow's for a generated circuit of s9234's shape at scale 0.075, the size
// of the benchmark's schedule pool.
func BenchmarkProblemSchedules(b *testing.B) {
	c := circuit.MustGenerate(circuit.GenSpec{
		Name: "s9234", Gates: 132, FFs: 17, Inputs: 10, Outputs: 7, Depth: 30, Seed: 9234,
	})
	data, opt := flowData(b, c, 0.25, 9234)
	opt.Workers = 1
	plans := tablePlans(opt)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := NewProblem(data)
		for _, o := range plans {
			s, err := p.Build(context.Background(), o)
			if err != nil {
				b.Fatal(err)
			}
			if s.Degradation != fmerr.DegradeNone {
				b.Fatal("benchmark instance must solve to optimality")
			}
		}
	}
}
