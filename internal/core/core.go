// Package core wires the complete HDF test flow of Fig. 4: timing
// annotation and analysis (1), timing-accurate fault simulation (2),
// detection-range computation (3) and shifting analysis (4), target-fault
// extraction (5), and test-schedule optimization (6). It is the engine
// behind the public fastmon API and the experiment harness.
package core

import (
	"context"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"fastmon/internal/atpg"
	"fastmon/internal/cell"
	"fastmon/internal/chaos"
	"fastmon/internal/circuit"
	"fastmon/internal/detect"
	"fastmon/internal/fault"
	"fastmon/internal/fmerr"
	"fastmon/internal/interval"
	"fastmon/internal/monitor"
	"fastmon/internal/obs"
	"fastmon/internal/schedule"
	"fastmon/internal/sim"
	"fastmon/internal/sta"
	"fastmon/internal/tunit"
)

// Chaos injection points at the serial stage boundaries of the flow
// (the parallel stages carry their own points inside their workers).
var (
	ptSTA      = chaos.Register("core.sta", fmerr.StageAnnotate)
	ptClassify = chaos.Register("core.classify", fmerr.StageAnnotate)
	ptExtract  = chaos.Register("core.extract", fmerr.StageDetect)
)

// The paper's clocking. Every flow runs under it; the monitors' delay
// elements are monitor.StandardDelays of the nominal clock.
const (
	// ClockMargin m sets clk := (1+m)·cpl.
	ClockMargin = 0.05
	// FMaxFactor k bounds FAST: f_max = k·f_nom, t_min = clk/k (following
	// the paper's refs. [9–11]).
	FMaxFactor = 3
)

// Config parameterizes a flow run. The zero value is completed with the
// paper's evaluation setup by Defaults.
type Config struct {
	// MonitorFraction of pseudo primary outputs receives monitors at long
	// path ends (0.25 in the paper).
	MonitorFraction float64
	// FaultSampleK keeps every k-th fault of the universe (1 = all);
	// large circuits use sampling exactly like the paper used GPU-farm
	// parallelism.
	FaultSampleK int
	// GlitchScale multiplies the pulse-filtering threshold applied to
	// detection intervals (1 = the library's inertial threshold; 0 keeps
	// the default). Used by the glitch-sensitivity ablation.
	GlitchScale float64
	// ATPGSeed drives test generation.
	ATPGSeed int64
	// Workers bounds the goroutine pools of every parallel stage — the
	// speculative ATPG phase, fault simulation, the Step-2 schedule
	// fan-out and the branch-and-bound solvers (0 = GOMAXPROCS; see
	// par.ClampWorkers).
	Workers int
	// SolverBudget bounds each exact set-covering solve.
	SolverBudget time.Duration
}

// Defaults fills unset fields with the paper's evaluation parameters.
func (c Config) Defaults() Config {
	if c.MonitorFraction == 0 {
		c.MonitorFraction = 0.25
	}
	if c.FaultSampleK < 1 {
		c.FaultSampleK = 1
	}
	if c.GlitchScale == 0 {
		c.GlitchScale = 1
	}
	return c
}

// Flow holds every artifact of one end-to-end run.
type Flow struct {
	Config    Config
	Circuit   *circuit.Circuit
	Library   *cell.Library
	Annot     *cell.Annotation
	Timing    *sta.Result
	Clk       tunit.Time
	TMin      tunit.Time
	Delta     tunit.Time
	Placement *monitor.Placement
	Patterns  []sim.Pattern
	ATPGStats atpg.Stats

	// Universe is the (sampled) initial fault list; Classes its
	// structural partition (flow step 1).
	Universe []fault.Fault
	Classes  map[fault.Class][]fault.Fault

	// HDF candidates (structural targets) and their simulated detection
	// data, index-aligned.
	HDFs []fault.Fault
	Data []detect.FaultData

	// Classification derived from simulation:
	ConvDetected   []int // HDF indices detectable by conventional FAST
	PropDetected   []int // HDF indices detectable with monitors
	AtSpeedMonitor []int // detectable at t_nom through a monitor config
	TargetIdx      []int // Φ_tar: PropDetected minus AtSpeedMonitor
	TargetData     []detect.FaultData
	DetectCfg      detect.Config

	// sched is the schedule problem of TargetData, made on the first
	// BuildSchedule call and shared by every later one.
	schedOnce sync.Once
	sched     *schedule.Problem
}

// Run executes the flow on an annotated circuit. The annotation argument
// may be nil, in which case the library's nominal delays are used.
//
// Cancelling ctx aborts whichever stage is running — ATPG, fault
// simulation, or classification — and returns a stage-attributed error
// wrapping the context error.
//
// A result cache attached to ctx (cache.With) memoizes the expensive
// stages: atpg.Generate and detect.Run consult it here, schedule.Build in
// BuildSchedule. Each stage keys on its own actual inputs, so the memo
// composes — changing one knob invalidates exactly the stages downstream
// of it (a new coverage target rebuilds only the schedule; a new monitor
// fraction re-runs detection and scheduling but reuses the pattern set).
func Run(ctx context.Context, c *circuit.Circuit, lib *cell.Library, annot *cell.Annotation, cfg Config) (*Flow, error) {
	cfg = cfg.Defaults()
	if annot == nil {
		annot = cell.Annotate(c, lib)
	}
	f := &Flow{Config: cfg, Circuit: c, Library: lib, Annot: annot}

	// Step 1: timing analysis, clocks, monitor placement, structural
	// fault classification. The returned contexts of the stage spans are
	// discarded on purpose: sta/classify/atpg/detect/extract are siblings,
	// not nested.
	if err := chaos.Point(ctx, ptSTA); err != nil {
		return nil, fmerr.Wrap(fmerr.StageAnnotate, "sta", err)
	}
	_, staSpan := obs.StartSpan(ctx, "sta")
	f.Timing = sta.Analyze(c, annot)
	f.Clk = f.Timing.NominalClock(ClockMargin)
	f.TMin = f.Clk.Scale(1.0 / FMaxFactor)
	f.Delta = lib.FaultSize()
	f.Placement = monitor.Place(f.Timing, cfg.MonitorFraction, monitor.StandardDelays(f.Clk))
	staSpan.End(
		slog.String("clk", f.Clk.String()),
		slog.Int("monitors", len(f.Placement.Taps)))

	if err := chaos.Point(ctx, ptClassify); err != nil {
		return nil, fmerr.Wrap(fmerr.StageAnnotate, "classify", err)
	}
	_, clsSpan := obs.StartSpan(ctx, "classify")
	f.Universe = fault.Sample(fault.Universe(c), cfg.FaultSampleK)
	ccfg := fault.ClassifyConfig{
		Clk: f.Clk, TMin: f.TMin, Delta: f.Delta,
		MaxMonitorDelay: f.Placement.MaxDelay(),
	}
	f.Classes = fault.Partition(f.Universe, f.Timing, ccfg)
	f.HDFs = f.Classes[fault.Target]
	clsSpan.End(
		slog.Int("universe", len(f.Universe)),
		slog.Int("hdf_candidates", len(f.HDFs)))

	// ATPG substrate: compacted transition-fault patterns for the full
	// (sampled) universe, standing in for the commercial test sets.
	acfg := atpg.DefaultConfig(cfg.ATPGSeed)
	acfg.Workers = cfg.Workers
	pats, st, err := atpg.Generate(ctx, c, f.Universe, acfg)
	if err != nil {
		return nil, err
	}
	f.Patterns, f.ATPGStats = pats, st
	if len(f.Patterns) == 0 {
		return nil, fmt.Errorf("core: ATPG produced no patterns for %s", c.Name)
	}

	// Steps 2–4: timing-accurate fault simulation and detection ranges.
	f.DetectCfg = detect.Config{
		Clk: f.Clk, TMin: f.TMin, Delta: f.Delta,
		Glitch: lib.MinPulse().Scale(cfg.GlitchScale), Workers: cfg.Workers,
	}
	e := sim.NewEngine(c, annot)
	data, err := detect.Run(ctx, e, f.Placement, f.HDFs, f.Patterns, f.DetectCfg)
	if err != nil {
		return nil, err
	}
	f.Data = data
	if err := ctx.Err(); err != nil {
		return nil, fmerr.Wrap(fmerr.StageDetect, "classify", err)
	}

	// Step 5: classification and target-fault extraction.
	if err := chaos.Point(ctx, ptExtract); err != nil {
		return nil, fmerr.Wrap(fmerr.StageDetect, "extract", err)
	}
	_, extSpan := obs.StartSpan(ctx, "extract")
	for i, c := range f.Model().Classify(data) {
		if c.Conv {
			f.ConvDetected = append(f.ConvDetected, i)
		}
		if !c.Prop {
			continue
		}
		f.PropDetected = append(f.PropDetected, i)
		if c.AtSpeed {
			// Some configuration exposes the fault at the nominal
			// period; no FAST frequency needed.
			f.AtSpeedMonitor = append(f.AtSpeedMonitor, i)
		} else {
			f.TargetIdx = append(f.TargetIdx, i)
		}
	}
	f.TargetData = make([]detect.FaultData, len(f.TargetIdx))
	for i, idx := range f.TargetIdx {
		f.TargetData[i] = data[idx]
	}
	extSpan.End(
		slog.Int("conv_detected", len(f.ConvDetected)),
		slog.Int("prop_detected", len(f.PropDetected)),
		slog.Int("at_speed_monitor", len(f.AtSpeedMonitor)),
		slog.Int("targets", len(f.TargetIdx)))
	return f, nil
}

// Delays returns the monitor delay elements of the run.
func (f *Flow) Delays() []tunit.Time { return f.Placement.Delays }

// Model returns the observation model of the run: the window [TMin,
// Clk+1) and the monitors' delay elements.
func (f *Flow) Model() detect.Model { return f.DetectCfg.Model(f.Placement.Delays) }

// ScheduleOptions builds the scheduling options for a method and coverage
// target (step 6).
func (f *Flow) ScheduleOptions(m schedule.Method, coverage float64) schedule.Options {
	return schedule.Options{
		Cfg:          f.DetectCfg,
		Delays:       f.Placement.Delays,
		Method:       m,
		Coverage:     coverage,
		SolverBudget: f.Config.SolverBudget,
		Workers:      f.Config.Workers,
	}
}

// BuildSchedule runs the scheduling step on the target faults. With a
// result cache on ctx the construction is memoized per (target data,
// method, coverage, budget); see Run. Every call on one flow shares one
// schedule.Problem, so Step 0 runs once per observation model and the
// target data is hashed once; TargetData must not change after the first
// call.
func (f *Flow) BuildSchedule(ctx context.Context, m schedule.Method, coverage float64) (*schedule.Schedule, error) {
	f.schedOnce.Do(func() { f.sched = schedule.NewProblem(f.TargetData) })
	return f.sched.Build(ctx, f.ScheduleOptions(m, coverage))
}

// CoverageAt evaluates the Fig.-3 sweep point: the fraction of HDF
// candidates detectable when the maximum FAST frequency is fmaxFactor ×
// f_nom, without monitors (conv) and with the given monitor delays
// (prop). The Fig. 3 experiment uses the single delay ⅓·t_nom.
func (f *Flow) CoverageAt(fmaxFactor float64, delays []tunit.Time) (conv, prop float64) {
	if len(f.Data) == 0 {
		return 0, 0
	}
	m := detect.Model{Lo: f.Clk.Scale(1 / fmaxFactor), Hi: f.Clk + 1, Delays: delays}
	nConv, nProp := 0, 0
	for _, c := range m.Classify(f.Data) {
		if c.Conv {
			nConv++
		}
		if c.Prop {
			nProp++
		}
	}
	n := float64(len(f.Data))
	return float64(nConv) / n, float64(nProp) / n
}

// RangeOf returns the combined detection range of HDF index i (diagnostic
// helper for examples and the CLI).
func (f *Flow) RangeOf(i int) interval.Set {
	return f.Model().Ranges(f.Data[i : i+1])[0]
}
