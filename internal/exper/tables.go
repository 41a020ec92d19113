package exper

import (
	"context"
	"fmt"
	"io"
	"log/slog"

	"fastmon/internal/cell"
	"fastmon/internal/core"
	"fastmon/internal/obs"
	"fastmon/internal/schedule"
)

// Run is the per-circuit harness result: the full flow plus the spec it
// was generated from.
type Run struct {
	Spec Spec
	Flow *core.Flow
}

// RunCircuit executes the end-to-end flow for one suite entry.
func RunCircuit(ctx context.Context, spec Spec, cfg SuiteConfig) (*Run, error) {
	cfg = cfg.Defaults()
	_, buildSpan := obs.StartSpan(ctx, "build")
	c, err := spec.Build(cfg.Scale)
	if err != nil {
		return nil, err
	}
	buildSpan.End(
		slog.Int("gates", c.NumGates()),
		slog.Int("ffs", c.NumFFs()))
	flow, err := core.Run(ctx, c, cell.NanGate45(), nil, cfg.flowConfig(spec, c))
	if err != nil {
		return nil, err
	}
	return &Run{Spec: spec, Flow: flow}, nil
}

// T1Row is one line of Table I.
type T1Row struct {
	Name    string
	Gates   int // circuit size as built (scaled)
	FFs     int
	P       int // generated pattern count
	M       int // monitors
	Conv    int // HDFs detected by conventional FAST
	Prop    int // HDFs detected with programmable monitors
	GainPct float64
	Target  int // |Φ_tar|
}

// TableI derives the Table I row of a run.
func TableI(r *Run) T1Row {
	f := r.Flow
	gain := 0.0
	if len(f.ConvDetected) > 0 {
		gain = (float64(len(f.PropDetected))/float64(len(f.ConvDetected)) - 1) * 100
	}
	return T1Row{
		Name:    r.Spec.Name,
		Gates:   f.Circuit.NumGates(),
		FFs:     f.Circuit.NumFFs(),
		P:       len(f.Patterns),
		M:       f.Placement.NumMonitors(),
		Conv:    len(f.ConvDetected),
		Prop:    len(f.PropDetected),
		GainPct: gain,
		Target:  len(f.TargetIdx),
	}
}

// T2Row is one line of Table II. ConvCov/PropCov report how many target
// faults each observation model can cover at all — the frequency counts
// only compare fairly with this context (the paper's p45k row shows the
// same effect: covering far more faults can cost extra frequencies).
type T2Row struct {
	Name       string
	ConvF      int // frequencies, conventional FAST (no monitors)
	HeurF      int // frequencies, greedy heuristic of [17] with monitors
	PropF      int // frequencies, ILP with monitors
	DeltaFPct  float64
	ConvCov    int // target faults coverable without monitors
	PropCov    int // target faults coverable with monitors
	Orig       int // |P × C × F| naïve applications
	Opti       int // |S| optimized applications
	DeltaPCPct float64
}

// TableII builds all three schedules for the run and reports the
// comparison row. The schedules themselves are returned for inspection.
func TableII(ctx context.Context, r *Run) (T2Row, map[schedule.Method]*schedule.Schedule, error) {
	f := r.Flow
	schedules := map[schedule.Method]*schedule.Schedule{}
	for _, m := range []schedule.Method{schedule.Conventional, schedule.Heuristic, schedule.ILP} {
		s, err := f.BuildSchedule(ctx, m, 1.0)
		if err != nil {
			return T2Row{}, nil, fmt.Errorf("%s/%v: %w", r.Spec.Name, m, err)
		}
		schedules[m] = s
	}
	prop := schedules[schedule.ILP]
	row := T2Row{
		Name:    r.Spec.Name,
		ConvF:   schedules[schedule.Conventional].NumFrequencies(),
		HeurF:   schedules[schedule.Heuristic].NumFrequencies(),
		PropF:   prop.NumFrequencies(),
		ConvCov: schedules[schedule.Conventional].Coverable,
		PropCov: prop.Coverable,
		Orig:    schedule.ComboUniverse(len(f.Patterns), f.Placement.NumConfigs(), prop.NumFrequencies()),
		Opti:    prop.Size(),
	}
	if row.ConvF > 0 {
		row.DeltaFPct = (1 - float64(row.PropF)/float64(row.ConvF)) * 100
	}
	row.DeltaPCPct = schedule.ReductionPercent(row.Orig, row.Opti)
	return row, schedules, nil
}

// T3Cell is one coverage target of Table III.
type T3Cell struct {
	Cov      float64
	F        int // selected frequencies |F_cov|
	PC       int // naïve applications |PC_cov| = |P×C|·|F_cov|
	S        int // optimized schedule size |S_cov|
	DeltaPct float64
}

// T3Row is one line of Table III.
type T3Row struct {
	Name  string
	Cells []T3Cell
}

// TableIIICoverages are the paper's coverage targets.
var TableIIICoverages = []float64{0.99, 0.98, 0.95, 0.90}

// TableIII builds ILP schedules for each partial-coverage target. The
// schedules themselves are returned for inspection, index-aligned with
// TableIIICoverages.
func TableIII(ctx context.Context, r *Run) (T3Row, []*schedule.Schedule, error) {
	f := r.Flow
	row := T3Row{Name: r.Spec.Name}
	var schedules []*schedule.Schedule
	for _, cov := range TableIIICoverages {
		s, err := f.BuildSchedule(ctx, schedule.ILP, cov)
		if err != nil {
			return T3Row{}, nil, fmt.Errorf("%s/cov%.2f: %w", r.Spec.Name, cov, err)
		}
		schedules = append(schedules, s)
		cell := T3Cell{
			Cov: cov,
			F:   s.NumFrequencies(),
			PC:  schedule.ComboUniverse(len(f.Patterns), f.Placement.NumConfigs(), s.NumFrequencies()),
			S:   s.Size(),
		}
		cell.DeltaPct = schedule.ReductionPercent(cell.PC, cell.S)
		row.Cells = append(row.Cells, cell)
	}
	return row, schedules, nil
}

// Fig3Point is one sweep point of Fig. 3.
type Fig3Point struct {
	FMaxFactor float64
	ConvPct    float64 // conventional FAST HDF coverage, percent
	PropPct    float64 // monitor-assisted coverage, percent
}

// Fig3 sweeps the maximum FAST frequency from f_nom to core.FMaxFactor·f_nom
// (3·f_nom) and reports HDF coverage with and without monitors. Per the
// figure's setup the monitors use the single delay ⅓·t_nom.
func Fig3(r *Run, steps int) []Fig3Point {
	f := r.Flow
	delays := f.Delays()
	d13 := delays[len(delays)-1:] // ⅓·clk element
	out := make([]Fig3Point, 0, steps+1)
	for i := 0; i <= steps; i++ {
		k := 1 + (core.FMaxFactor-1)*float64(i)/float64(steps) // 1.0 … 3.0
		conv, prop := f.CoverageAt(k, d13)
		out = append(out, Fig3Point{FMaxFactor: k, ConvPct: conv * 100, PropPct: prop * 100})
	}
	return out
}

// --- rendering -----------------------------------------------------------

// WriteTableI renders rows in the paper's layout.
func WriteTableI(w io.Writer, rows []T1Row) {
	fmt.Fprintf(w, "TABLE I. Circuit statistics and targeted hidden delay faults (HDF).\n")
	fmt.Fprintf(w, "%-8s %8s %6s %6s %6s | %8s %8s %10s | %8s\n",
		"Circuit", "Gates", "FFs", "|P|", "|M|", "conv.", "prop.", "Δ%", "Φtar")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %8d %6d %6d %6d | %8d %8d %+9.1f%% | %8d\n",
			r.Name, r.Gates, r.FFs, r.P, r.M, r.Conv, r.Prop, r.GainPct, r.Target)
	}
}

// WriteTableII renders rows in the paper's layout.
func WriteTableII(w io.Writer, rows []T2Row) {
	fmt.Fprintf(w, "TABLE II. Number of selected test frequencies and test time in comparison.\n")
	fmt.Fprintf(w, "%-8s %6s %6s %6s %8s %9s %9s | %9s %9s %10s\n",
		"Circuit", "conv.", "heur.", "prop.", "Δ%|F|", "cov-conv", "cov-prop", "orig.", "opti.", "Δ%|PC|")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %6d %6d %6d %7.1f%% %9d %9d | %9d %9d %+9.1f%%\n",
			r.Name, r.ConvF, r.HeurF, r.PropF, r.DeltaFPct, r.ConvCov, r.PropCov, r.Orig, r.Opti, r.DeltaPCPct)
	}
}

// WriteTableIII renders rows in the paper's layout.
func WriteTableIII(w io.Writer, rows []T3Row) {
	fmt.Fprintf(w, "TABLE III. Test time reduction for coverage targets.\n")
	fmt.Fprintf(w, "%-8s", "Circuit")
	for _, cov := range TableIIICoverages {
		fmt.Fprintf(w, " | %5s%% %8s %8s %8s", fmt.Sprintf("F%.0f", cov*100), "PC", "S", "Δ%")
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s", r.Name)
		for _, c := range r.Cells {
			fmt.Fprintf(w, " | %6d %8d %8d %+7.1f%%", c.F, c.PC, c.S, c.DeltaPct)
		}
		fmt.Fprintln(w)
	}
}

// WriteFig3 renders the sweep as a two-series table.
func WriteFig3(w io.Writer, pts []Fig3Point) {
	fmt.Fprintf(w, "Fig. 3. HDF coverage vs maximum FAST frequency.\n")
	fmt.Fprintf(w, "%8s %12s %12s\n", "fmax/fn", "conv. %", "w/ mon. %")
	for _, p := range pts {
		fmt.Fprintf(w, "%8.2f %12.1f %12.1f\n", p.FMaxFactor, p.ConvPct, p.PropPct)
	}
}
