package core

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"fastmon/internal/cell"
	"fastmon/internal/circuit"
	"fastmon/internal/fault"
	"fastmon/internal/fmerr"
	"fastmon/internal/obs"
	"fastmon/internal/schedule"
)

func runS27(t *testing.T) *Flow {
	t.Helper()
	c := circuit.MustParseBench("s27", circuit.S27)
	f, err := Run(context.Background(), c, cell.NanGate45(), nil, Config{ATPGSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.Defaults()
	if c.ClockMargin != 0.05 || c.FMaxFactor != 3 || c.MonitorFraction != 0.25 {
		t.Fatalf("defaults = %+v", c)
	}
	if len(c.DelayFractions) != 4 || c.FaultSampleK != 1 {
		t.Fatalf("defaults = %+v", c)
	}
	// Explicit values survive.
	c2 := Config{ClockMargin: 0.1, FMaxFactor: 2}.Defaults()
	if c2.ClockMargin != 0.1 || c2.FMaxFactor != 2 {
		t.Fatalf("overrides lost: %+v", c2)
	}
}

func TestRunS27FlowConsistency(t *testing.T) {
	f := runS27(t)
	if f.Clk <= 0 || f.TMin <= 0 || f.TMin >= f.Clk {
		t.Fatalf("clocks: clk=%d tmin=%d", f.Clk, f.TMin)
	}
	if f.Delta != f.Library.FaultSize() {
		t.Fatal("delta mismatch")
	}
	// Partition accounts for the whole universe.
	total := 0
	for _, fs := range f.Classes {
		total += len(fs)
	}
	if total != len(f.Universe) {
		t.Fatalf("classes total %d != universe %d", total, len(f.Universe))
	}
	if len(f.HDFs) != len(f.Data) {
		t.Fatal("data not aligned with HDF list")
	}
	// Prop ⊇ Conv; Target ∪ AtSpeedMonitor = Prop, disjoint.
	conv := map[int]bool{}
	for _, i := range f.ConvDetected {
		conv[i] = true
	}
	prop := map[int]bool{}
	for _, i := range f.PropDetected {
		prop[i] = true
	}
	for i := range conv {
		if !prop[i] {
			t.Fatal("conventional-detected fault missing from prop set")
		}
	}
	seen := map[int]bool{}
	for _, i := range append(append([]int{}, f.AtSpeedMonitor...), f.TargetIdx...) {
		if !prop[i] || seen[i] {
			t.Fatal("target/at-speed partition broken")
		}
		seen[i] = true
	}
	if len(seen) != len(f.PropDetected) {
		t.Fatal("target + at-speed != prop")
	}
	if len(f.TargetData) != len(f.TargetIdx) {
		t.Fatal("target data misaligned")
	}
	// Monitors help (on s27 with 25% placement this may be modest but
	// prop can never be smaller than conv).
	if len(f.PropDetected) < len(f.ConvDetected) {
		t.Fatal("monitors reduced coverage")
	}
}

func TestRunSchedulesAllMethods(t *testing.T) {
	f := runS27(t)
	if len(f.TargetData) == 0 {
		t.Skip("no target faults on s27 at this configuration")
	}
	for _, m := range []schedule.Method{schedule.Conventional, schedule.Heuristic, schedule.ILP} {
		s, err := f.BuildSchedule(context.Background(), m, 1.0)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if err := schedule.Validate(f.TargetData, s, f.ScheduleOptions(m, 1.0)); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if s.Covered != s.Coverable {
			t.Fatalf("%v: covered %d of %d", m, s.Covered, s.Coverable)
		}
	}
}

// TestBuildScheduleSharesProblem builds the seven Tables II–III schedules
// of one flow through BuildSchedule, in two orders: each must equal a
// fresh schedule.Build of the same options at one and two workers, and the
// flow must prepare Step 0 once per observation model. The effort counters
// are compared in full at one worker; at two only the solve count is,
// because a parallel search expands nodes in a racy order.
func TestBuildScheduleSharesProblem(t *testing.T) {
	// The suite's s9234 at scale 0.075, the benchmark's schedule pool
	// size: every exact solve finishes well within the budget.
	c := circuit.MustGenerate(circuit.GenSpec{
		Name: "s9234", Gates: 132, FFs: 17, Inputs: 10, Outputs: 7, Depth: 30, Seed: 9234,
	})
	ref, err := Run(context.Background(), c, cell.NanGate45(), nil, Config{ATPGSeed: 9234, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	type plan struct {
		m   schedule.Method
		cov float64
	}
	plans := []plan{{schedule.Conventional, 1}, {schedule.Heuristic, 1}, {schedule.ILP, 1},
		{schedule.ILP, 0.99}, {schedule.ILP, 0.98}, {schedule.ILP, 0.95}, {schedule.ILP, 0.90}}
	reversed := make([]plan, len(plans))
	for i, p := range plans {
		reversed[len(plans)-1-i] = p
	}
	effort := func(s *schedule.Schedule, workers int) schedule.Schedule {
		v := *s
		if workers > 1 {
			v.Solver = schedule.SolverStats{Solves: v.Solver.Solves}
		}
		return v
	}
	for _, workers := range []int{1, 2} {
		for oi, order := range [][]plan{plans, reversed} {
			f := &Flow{Config: ref.Config, DetectCfg: ref.DetectCfg, Placement: ref.Placement, TargetData: ref.TargetData}
			f.Config.Workers = workers
			o := obs.New(nil)
			ctx := obs.With(context.Background(), o)
			for _, p := range order {
				got, err := f.BuildSchedule(ctx, p.m, p.cov)
				if err != nil {
					t.Fatal(err)
				}
				want, err := schedule.Build(context.Background(), f.TargetData, f.ScheduleOptions(p.m, p.cov))
				if err != nil {
					t.Fatal(err)
				}
				if p.m == schedule.ILP && want.Degradation != fmerr.DegradeNone {
					t.Fatalf("%v@%g: the fresh build is not exact, so it may depend on the host", p.m, p.cov)
				}
				if !reflect.DeepEqual(effort(got, workers), effort(want, workers)) {
					t.Fatalf("workers=%d order %d %v@%g: shared-problem schedule\n%+v\ndiffers from a fresh build\n%+v",
						workers, oi, p.m, p.cov, got, want)
				}
			}
			if n := o.Counter("schedule.step0_builds").Value(); n != 2 {
				t.Fatalf("workers=%d order %d: schedule.step0_builds = %d, want 2", workers, oi, n)
			}
		}
	}
}

func TestCoverageAtMonotone(t *testing.T) {
	f := runS27(t)
	delays := f.Delays()
	prevConv, prevProp := 0.0, 0.0
	for _, k := range []float64{1.0, 1.5, 2.0, 2.5, 3.0} {
		conv, prop := f.CoverageAt(k, delays)
		if conv < prevConv-1e-9 || prop < prevProp-1e-9 {
			t.Fatalf("coverage not monotone in f_max at k=%.1f", k)
		}
		if prop < conv-1e-9 {
			t.Fatalf("prop < conv at k=%.1f", k)
		}
		prevConv, prevProp = conv, prop
	}
}

func TestFaultSampling(t *testing.T) {
	c := circuit.MustParseBench("s27", circuit.S27)
	f, err := Run(context.Background(), c, cell.NanGate45(), nil, Config{ATPGSeed: 1, FaultSampleK: 4})
	if err != nil {
		t.Fatal(err)
	}
	all := len(fault.Universe(c))
	if len(f.Universe) > all/4+1 {
		t.Fatalf("sampling ineffective: %d of %d", len(f.Universe), all)
	}
}

func TestRunGeneratedCircuit(t *testing.T) {
	c := circuit.MustGenerate(circuit.GenSpec{
		Name: "gen400", Gates: 400, FFs: 40, Inputs: 12, Outputs: 10, Depth: 16, Seed: 5,
	})
	// The full-coverage solve runs out even the default 10 s budget on
	// this instance, so a short budget keeps the test fast.
	f, err := Run(context.Background(), c, cell.NanGate45(), nil,
		Config{ATPGSeed: 2, SolverBudget: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// The monitored setup must beat conventional detection on a circuit
	// with short observable paths.
	if len(f.PropDetected) <= len(f.ConvDetected) {
		t.Logf("conv=%d prop=%d (gain can be zero on tiny designs)", len(f.ConvDetected), len(f.PropDetected))
	}
	if len(f.TargetData) == 0 {
		t.Fatal("no target faults at all")
	}
	s, err := f.BuildSchedule(context.Background(), schedule.ILP, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if err := schedule.Validate(f.TargetData, s, f.ScheduleOptions(schedule.ILP, 1.0)); err != nil {
		t.Fatal(err)
	}
	if s.NumFrequencies() == 0 {
		t.Fatal("empty schedule for non-empty target set")
	}
	// Whether the solves finish within the budget depends on the host;
	// the report must agree with itself either way.
	proven := s.FreqOptimal && s.CombosOptimal
	if (s.Degradation == fmerr.DegradeIncumbent) == proven || s.Solver.MaxGap < 0 || s.Solver.MaxGap > 1 {
		t.Fatalf("degradation %v with freq/combos optimal %v/%v and max gap %v",
			s.Degradation, s.FreqOptimal, s.CombosOptimal, s.Solver.MaxGap)
	}
	t.Logf("%v, max gap %.2f", s.Degradation, s.Solver.MaxGap)
}

// TestRunCanceledMidFlow cancels the flow shortly after it starts on a
// larger generated circuit: Run must return promptly with a
// stage-attributed cancellation error instead of finishing the multi-second
// simulation.
func TestRunCanceledMidFlow(t *testing.T) {
	c := circuit.MustGenerate(circuit.GenSpec{
		Name: "gen1200", Gates: 1200, FFs: 96, Inputs: 14, Outputs: 12, Depth: 20, Seed: 6,
	})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	f, err := Run(ctx, c, cell.NanGate45(), nil, Config{ATPGSeed: 2})
	elapsed := time.Since(start)
	if err == nil {
		// The flow beat the cancellation — possible on fast machines; the
		// run must then be complete and valid.
		if f == nil || len(f.Data) == 0 {
			t.Fatal("nil error but incomplete flow")
		}
		return
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not wrap context.Canceled: %v", err)
	}
	if !fmerr.IsCanceled(err) || fmerr.StageOf(err) == "" {
		t.Fatalf("missing taxonomy attribution: %v", err)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("cancelled flow took %v", elapsed)
	}
}

// TestRunPreCanceled: a context cancelled before the call returns
// immediately from whichever stage observes it first.
func TestRunPreCanceled(t *testing.T) {
	c := circuit.MustParseBench("s27", circuit.S27)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, c, cell.NanGate45(), nil, Config{ATPGSeed: 1}); !fmerr.IsCanceled(err) {
		t.Fatalf("pre-cancelled Run: %v", err)
	}
}
