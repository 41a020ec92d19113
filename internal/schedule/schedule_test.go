package schedule

import (
	"context"
	"runtime"
	"testing"
	"time"

	"fastmon/internal/atpg"
	"fastmon/internal/cell"
	"fastmon/internal/circuit"
	"fastmon/internal/detect"
	"fastmon/internal/fault"
	"fastmon/internal/interval"
	"fastmon/internal/monitor"
	"fastmon/internal/sim"
	"fastmon/internal/sta"
	"fastmon/internal/tunit"
)

// synthetic builds hand-crafted detection data: n faults with known
// detection ranges (FF part only, pattern 0).
func synthetic(cfg detect.Config, ranges ...interval.Set) []detect.FaultData {
	data := make([]detect.FaultData, len(ranges))
	for i, r := range ranges {
		if r.Empty() {
			continue
		}
		data[i].Per = []detect.PatternRange{{Pattern: 0, FF: r}}
	}
	return data
}

func TestBuildSyntheticMinimalFrequencies(t *testing.T) {
	cfg := detect.Config{Clk: 1000, TMin: 300}
	// Three faults: φ1 and φ2 share [400,500); φ3 only at [600,700).
	data := synthetic(cfg,
		interval.FromPoints(400, 500),
		interval.FromPoints(350, 520),
		interval.FromPoints(600, 700),
	)
	opt := Options{Cfg: cfg, Method: ILP}
	s, err := Build(context.Background(), data, opt)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumFrequencies() != 2 {
		t.Fatalf("frequencies = %d, want 2", s.NumFrequencies())
	}
	if s.Covered != 3 || s.Coverable != 3 {
		t.Fatalf("covered %d/%d", s.Covered, s.Coverable)
	}
	if !s.FreqOptimal {
		t.Fatal("small instance must be proven optimal")
	}
	if err := Validate(data, s, opt); err != nil {
		t.Fatal(err)
	}
	// Each period uses exactly one combo (single pattern, no monitors).
	for _, p := range s.Periods {
		if len(p.Combos) != 1 || p.Combos[0].Config != -1 {
			t.Fatalf("combos = %+v", p.Combos)
		}
	}
}

func TestBuildEmptyData(t *testing.T) {
	cfg := detect.Config{Clk: 1000, TMin: 300}
	s, err := Build(context.Background(), synthetic(cfg, interval.Set{}, interval.Set{}), Options{Cfg: cfg, Method: ILP})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumFrequencies() != 0 || s.Covered != 0 || s.Size() != 0 {
		t.Fatalf("schedule = %+v", s)
	}
}

func TestBuildPartialCoverage(t *testing.T) {
	cfg := detect.Config{Clk: 1000, TMin: 100}
	// Four faults in disjoint windows: full coverage needs 4 periods,
	// 50% needs 2 (any two).
	data := synthetic(cfg,
		interval.FromPoints(100, 200),
		interval.FromPoints(300, 400),
		interval.FromPoints(500, 600),
		interval.FromPoints(700, 800),
	)
	opt := Options{Cfg: cfg, Method: ILP, Coverage: 0.5}
	s, err := Build(context.Background(), data, opt)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumFrequencies() != 2 {
		t.Fatalf("frequencies = %d, want 2", s.NumFrequencies())
	}
	if s.Covered != 2 {
		t.Fatalf("covered = %d, want 2", s.Covered)
	}
	if err := Validate(data, s, opt); err != nil {
		t.Fatal(err)
	}
}

// buildS27 computes real detection data for s27 with monitors everywhere.
func buildS27(t *testing.T) ([]detect.FaultData, Options) {
	t.Helper()
	return flowData(t, circuit.MustParseBench("s27", circuit.S27), 1.0, 23)
}

// flowData computes detection data for c the way the flow does: monitors
// on the given fraction of long-path ends with the paper's delay elements,
// ATPG patterns from seed, and f_max = 3·f_nom. The faults with any
// detection stand in for the target set Φ_tar.
func flowData(tb testing.TB, c *circuit.Circuit, monitorFraction float64, seed int64) ([]detect.FaultData, Options) {
	tb.Helper()
	lib := cell.NanGate45()
	a := cell.Annotate(c, lib)
	r := sta.Analyze(c, a)
	clk := r.NominalClock(0.05)
	placement := monitor.Place(r, monitorFraction, monitor.StandardDelays(clk))
	e := sim.NewEngine(c, a)
	faults := fault.Universe(c)
	pats, _, err := atpg.Generate(context.Background(), c, faults, atpg.DefaultConfig(seed))
	if err != nil {
		tb.Fatal(err)
	}
	cfg := detect.Config{Clk: clk, TMin: clk / 3, Delta: lib.FaultSize(), Glitch: lib.MinPulse()}
	data, err := detect.Run(context.Background(), e, placement, faults, pats, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	var target []detect.FaultData
	for _, fd := range data {
		if len(fd.Per) > 0 {
			target = append(target, fd)
		}
	}
	if len(target) == 0 {
		tb.Fatalf("no detectable faults on %s", c.Name)
	}
	return target, Options{Cfg: cfg, Delays: placement.Delays, Method: ILP}
}

func TestBuildS27AllMethods(t *testing.T) {
	data, opt := buildS27(t)

	optILP := opt
	optILP.Method = ILP
	sILP, err := Build(context.Background(), data, optILP)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(data, sILP, optILP); err != nil {
		t.Fatal(err)
	}

	optHeur := opt
	optHeur.Method = Heuristic
	sHeur, err := Build(context.Background(), data, optHeur)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(data, sHeur, optHeur); err != nil {
		t.Fatal(err)
	}

	optConv := opt
	optConv.Method = Conventional
	sConv, err := Build(context.Background(), data, optConv)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(data, sConv, optConv); err != nil {
		t.Fatal(err)
	}

	// The ILP frequency count is never worse than the greedy heuristic on
	// the same (monitored) instance.
	if sILP.NumFrequencies() > sHeur.NumFrequencies() {
		t.Fatalf("ILP %d frequencies > heuristic %d", sILP.NumFrequencies(), sHeur.NumFrequencies())
	}
	// Monitors never reduce the number of coverable faults.
	if sILP.Coverable < sConv.Coverable {
		t.Fatalf("monitored coverage %d < conventional %d", sILP.Coverable, sConv.Coverable)
	}
	// Full-coverage schedules must cover everything coverable.
	if sILP.Covered != sILP.Coverable || sConv.Covered != sConv.Coverable {
		t.Fatal("full-coverage schedule left coverable faults uncovered")
	}
}

func TestBuildS27CoverageLadder(t *testing.T) {
	data, opt := buildS27(t)
	prevF, prevS := 1<<30, 1<<30
	for _, cov := range []float64{1.0, 0.99, 0.95, 0.90} {
		o := opt
		o.Coverage = cov
		s, err := Build(context.Background(), data, o)
		if err != nil {
			t.Fatal(err)
		}
		if err := Validate(data, s, o); err != nil {
			t.Fatal(err)
		}
		quota := Quota(s.Coverable, cov)
		if s.Covered < quota {
			t.Fatalf("cov %.2f: covered %d < quota %d", cov, s.Covered, quota)
		}
		// Lower targets can only need fewer (or equal) resources.
		if s.NumFrequencies() > prevF || s.Size() > prevS {
			t.Fatalf("cov %.2f: resources grew (F %d > %d or S %d > %d)",
				cov, s.NumFrequencies(), prevF, s.Size(), prevS)
		}
		prevF, prevS = s.NumFrequencies(), s.Size()
	}
}

func TestSolverBudgetFallback(t *testing.T) {
	data, opt := buildS27(t)
	opt.SolverBudget = time.Nanosecond // force immediate fallback
	s, err := Build(context.Background(), data, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(data, s, opt); err != nil {
		t.Fatal(err)
	}
	if s.Covered != s.Coverable {
		t.Fatal("fallback schedule must still cover everything")
	}
}

func TestQuotaExactCeiling(t *testing.T) {
	cases := []struct {
		coverable int
		coverage  float64
		want      int
	}{
		// The former float hack computed 1000·0.999 as 998.9999…; the
		// exact ceiling must land on 999, not 998 or 1000.
		{1000, 0.999, 999},
		// 100·0.07 floats to 7.000000000000001, which the old
		// +0.999999 trick rounded up to 8.
		{100, 0.07, 7},
		{1000, 0.9995, 1000},
		{1000, 0.0001, 1},
		// Tiny coverable counts: any positive target needs ≥ 1 fault.
		{1, 0.001, 1},
		{1, 0.999, 1},
		{2, 0.5, 1},
		{3, 0.5, 2},
		{0, 0.5, 0},
		// Full coverage passthrough.
		{1000, 0, 1000},
		{1000, 1, 1000},
		{1000, 1.5, 1000},
	}
	for _, c := range cases {
		if got := Quota(c.coverable, c.coverage); got != c.want {
			t.Errorf("Quota(%d, %g) = %d, want %d", c.coverable, c.coverage, got, c.want)
		}
	}
}

// scheduleEqual compares the fields the differential suite locks down:
// Periods (periods, fault assignment, combos), Covered, and the solver
// optimality flags.
func scheduleEqual(a, b *Schedule) bool {
	if a.Method != b.Method || a.Covered != b.Covered || a.Coverable != b.Coverable ||
		a.FreqOptimal != b.FreqOptimal || a.CombosOptimal != b.CombosOptimal ||
		len(a.Periods) != len(b.Periods) {
		return false
	}
	for i := range a.Periods {
		pa, pb := a.Periods[i], b.Periods[i]
		if pa.Period != pb.Period || len(pa.Faults) != len(pb.Faults) || len(pa.Combos) != len(pb.Combos) {
			return false
		}
		for j := range pa.Faults {
			if pa.Faults[j] != pb.Faults[j] {
				return false
			}
		}
		for j := range pa.Combos {
			if pa.Combos[j] != pb.Combos[j] {
				return false
			}
		}
	}
	return true
}

// TestBuildParallelMatchesSerial is the schedule half of the differential
// suite: Workers=1 and Workers>1 builds must produce bit-identical
// schedules for every method.
func TestBuildParallelMatchesSerial(t *testing.T) {
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)
	data, opt := buildS27(t)
	for _, m := range []Method{ILP, Heuristic, Conventional} {
		for _, cov := range []float64{1.0, 0.95} {
			o := opt
			o.Method, o.Coverage = m, cov
			o.Workers = 1
			ref, err := Build(context.Background(), data, o)
			if err != nil {
				t.Fatalf("%v cov=%g serial: %v", m, cov, err)
			}
			for _, w := range []int{2, 8} {
				o.Workers = w
				got, err := Build(context.Background(), data, o)
				if err != nil {
					t.Fatalf("%v cov=%g workers=%d: %v", m, cov, w, err)
				}
				if !scheduleEqual(ref, got) {
					t.Fatalf("%v cov=%g workers=%d: schedule differs from serial:\nserial: %+v\nparallel: %+v",
						m, cov, w, ref, got)
				}
			}
		}
	}
}

func TestMetrics(t *testing.T) {
	if ComboUniverse(155, 4, 13) != 155*5*13 {
		t.Fatal("ComboUniverse wrong")
	}
	if got := ReductionPercent(10075, 662); got < 93.0 || got > 94.0 {
		t.Fatalf("ReductionPercent = %f", got)
	}
	if ReductionPercent(0, 5) != 0 {
		t.Fatal("zero original must give 0")
	}
	s := &Schedule{Periods: []PeriodPlan{
		{Period: 500, Combos: []Combo{{0, -1}, {1, 0}}},
		{Period: 800, Combos: []Combo{{2, 1}}},
	}}
	if s.Size() != 3 || s.NumFrequencies() != 2 {
		t.Fatal("Size/NumFrequencies wrong")
	}
	tm := DefaultTimeModel(100)
	d := tm.Estimate(s)
	if d <= 200*time.Microsecond { // at least the two re-locks
		t.Fatalf("Estimate = %v", d)
	}
	if Conventional.String() != "conv" || Heuristic.String() != "heur" || ILP.String() != "ilp" {
		t.Fatal("method strings")
	}
	if tunit.Time(0) != 0 {
		t.Fatal()
	}
}
