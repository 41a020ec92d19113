// Package fastmon is a library for hidden-delay-fault testing with
// programmable delay monitors — a from-scratch reproduction of "Using
// Programmable Delay Monitors for Wear-Out and Early Life Failure
// Prediction" (Liu, Schneider, Wunderlich — DATE 2020).
//
// The library covers the complete flow of the paper (Fig. 4):
//
//   - gate-level netlists (.bench), a 45nm-class cell library and SDF
//     timing annotation,
//   - static timing analysis and structural fault classification,
//   - timing-accurate waveform fault simulation of small delay faults,
//   - programmable delay monitors: placement at long path ends,
//     detection-range shifting (I_SR = I_FF + d) and the aging guard-band
//     lifecycle,
//   - observation-time discretization and two-step test-schedule
//     optimization via exact zero-one programming (with greedy-heuristic
//     and conventional-FAST baselines),
//   - an experiment harness regenerating Fig. 3 and Tables I–III.
//
// Quick start:
//
//	c := fastmon.MustParseBench("s27", fastmon.S27)
//	flow, err := fastmon.Run(ctx, c, fastmon.NanGate45(), fastmon.Config{})
//	sched, err := flow.BuildSchedule(ctx, fastmon.MethodILP, 1.0)
package fastmon

import (
	"context"
	"io"
	"log/slog"

	"fastmon/internal/aging"
	"fastmon/internal/atpg"
	"fastmon/internal/cache"
	"fastmon/internal/cell"
	"fastmon/internal/circuit"
	"fastmon/internal/core"
	"fastmon/internal/detect"
	"fastmon/internal/diagnose"
	"fastmon/internal/exper"
	"fastmon/internal/fault"
	"fastmon/internal/interval"
	"fastmon/internal/monitor"
	"fastmon/internal/obs"
	"fastmon/internal/patio"
	"fastmon/internal/scan"
	"fastmon/internal/schedule"
	"fastmon/internal/sdf"
	"fastmon/internal/sim"
	"fastmon/internal/sta"
	"fastmon/internal/tunit"
	"fastmon/internal/verilog"
)

// Core data types, re-exported for API users (internal packages are not
// importable outside this module; these aliases make the types nameable).
type (
	// Circuit is a gate-level full-scan netlist.
	Circuit = circuit.Circuit
	// GenSpec parameterizes the synthetic netlist generator.
	GenSpec = circuit.GenSpec
	// Library is a standard-cell timing library.
	Library = cell.Library
	// Annotation holds per-pin delay annotation (SDF contents).
	Annotation = cell.Annotation
	// Time is integer picoseconds.
	Time = tunit.Time
	// Freq is a clock frequency in hertz.
	Freq = tunit.Freq
	// IntervalSet is a canonical union of half-open time intervals — the
	// representation of detection ranges.
	IntervalSet = interval.Set
	// Fault is a small delay fault site with polarity.
	Fault = fault.Fault
	// Pattern is a two-vector (launch/capture) test.
	Pattern = sim.Pattern
	// Waveform is a simulated signal (initial value plus toggle times).
	Waveform = sim.Waveform
	// Placement describes inserted programmable delay monitors.
	Placement = monitor.Placement
	// Config parameterizes a flow run.
	Config = core.Config
	// Flow holds every artifact of an end-to-end run.
	Flow = core.Flow
	// FaultData is the per-fault detection-range data.
	FaultData = detect.FaultData
	// Schedule is an optimized FAST schedule S ⊆ F × P × C.
	Schedule = schedule.Schedule
	// ScheduleOptions parameterizes schedule construction.
	ScheduleOptions = schedule.Options
	// Method selects the scheduling algorithm.
	Method = schedule.Method
	// AgingModel is the power-law degradation model.
	AgingModel = aging.Model
	// AgingStep is one wear-out lifecycle checkpoint report.
	AgingStep = aging.Step
	// TimingResult is the static-timing-analysis view of a circuit.
	TimingResult = sta.Result
	// ExperimentSpec is one Table-I suite circuit.
	ExperimentSpec = exper.Spec
	// SuiteConfig controls experiment-harness runs.
	SuiteConfig = exper.SuiteConfig
	// ExperimentRun is one per-circuit harness result.
	ExperimentRun = exper.Run
	// Observer is the pipeline observability hub: structured spans, metric
	// counters and a run manifest. Attach one to a context with
	// WithObserver and every stage of Run records through it; without one,
	// all instrumentation is a no-op.
	Observer = obs.Observer
	// RunManifest is the machine-readable record of a run ("run.json").
	RunManifest = obs.Manifest
	// SolverStats aggregates exact-solver effort behind one schedule.
	SolverStats = schedule.SolverStats
)

// Scheduling methods.
const (
	// MethodConventional is FAST without monitors.
	MethodConventional = schedule.Conventional
	// MethodHeuristic is greedy set covering with monitors ([17]).
	MethodHeuristic = schedule.Heuristic
	// MethodILP is exact zero-one programming with monitors (the paper).
	MethodILP = schedule.ILP
)

// S27 is the embedded ISCAS'89 s27 netlist.
const S27 = circuit.S27

// NanGate45 returns the default 45nm-class cell library.
func NanGate45() *Library { return cell.NanGate45() }

// ParseBench reads an ISCAS'89-style .bench netlist.
func ParseBench(name string, r io.Reader) (*Circuit, error) { return circuit.ParseBench(name, r) }

// MustParseBench parses an embedded netlist and panics on error.
func MustParseBench(name, src string) *Circuit { return circuit.MustParseBench(name, src) }

// WriteBench writes a netlist in .bench format.
func WriteBench(w io.Writer, c *Circuit) error { return circuit.WriteBench(w, c) }

// Generate builds a deterministic synthetic benchmark netlist.
func Generate(spec GenSpec) (*Circuit, error) { return circuit.Generate(spec) }

// Annotate computes the nominal delay annotation for a circuit.
func Annotate(c *Circuit, lib *Library) *Annotation { return cell.Annotate(c, lib) }

// ReadSDF parses an SDF file into a delay annotation.
func ReadSDF(r io.Reader, c *Circuit, lib *Library) (*Annotation, error) {
	return sdf.Read(r, c, lib)
}

// WriteSDF writes the annotation as an SDF file.
func WriteSDF(w io.Writer, c *Circuit, a *Annotation) error { return sdf.Write(w, c, a) }

// AnalyzeTiming runs static timing analysis.
func AnalyzeTiming(c *Circuit, a *Annotation) *TimingResult { return sta.Analyze(c, a) }

// Run executes the complete HDF test flow (Fig. 4) on a circuit.
// Cancelling ctx aborts the running stage promptly with a stage-attributed
// error (see the fmerr taxonomy in DESIGN.md).
func Run(ctx context.Context, c *Circuit, lib *Library, cfg Config) (*Flow, error) {
	return core.Run(ctx, c, lib, nil, cfg)
}

// RunAnnotated is Run with an explicit (e.g. SDF-derived) annotation.
func RunAnnotated(ctx context.Context, c *Circuit, lib *Library, a *Annotation, cfg Config) (*Flow, error) {
	return core.Run(ctx, c, lib, a, cfg)
}

// ValidateSchedule checks that a schedule covers every fault it claims.
func ValidateSchedule(data []FaultData, s *Schedule, opt ScheduleOptions) error {
	return schedule.Validate(data, s, opt)
}

// NewObserver creates an observability hub logging through the given slog
// logger (nil collects spans and metrics but discards log output).
func NewObserver(logger *Logger) *Observer { return obs.New(logger) }

// Logger is the structured logger type observers log through (log/slog).
type Logger = slog.Logger

// WithObserver attaches an observer to the context; every pipeline stage
// run under the returned context records spans and metrics through it.
func WithObserver(ctx context.Context, o *Observer) context.Context { return obs.With(ctx, o) }

// ObserverFrom returns the observer attached to the context, or nil (all
// observer methods are no-ops on nil).
func ObserverFrom(ctx context.Context) *Observer { return obs.From(ctx) }

// NewRunManifest seeds a run manifest with build provenance and the
// fingerprint of the given configuration.
func NewRunManifest(tool string, config any) *RunManifest { return obs.NewManifest(tool, config) }

// CacheStore is the content-addressed result cache (internal/cache): a
// disk-backed memo for stage results keyed by canonical input fingerprints.
// A nil *CacheStore disables caching everywhere it is consulted.
type CacheStore = cache.Store

// CacheReport summarizes cache traffic for the run manifest.
type CacheReport = obs.CacheReport

// OpenCache opens (creating if needed) a result-cache directory with the
// given byte budget (<= 0 disables the budget). Existing entries are
// adopted, so a warm directory accelerates the next run.
func OpenCache(dir string, maxBytes int64) (*CacheStore, error) { return cache.Open(dir, maxBytes) }

// WithCache attaches a result cache to the context; ATPG, detection-range
// extraction and schedule construction run under the returned context
// memoize through it, recomputing only stages whose inputs changed.
func WithCache(ctx context.Context, s *CacheStore) context.Context { return cache.With(ctx, s) }

// CacheFrom returns the cache attached to the context, or nil (caching
// disabled).
func CacheFrom(ctx context.Context) *CacheStore { return cache.From(ctx) }

// FaultUniverse enumerates two small delay faults at every input and
// output pin of every gate.
func FaultUniverse(c *Circuit) []Fault { return fault.Universe(c) }

// DefaultAgingModel returns the BTI-shaped degradation defaults.
func DefaultAgingModel(seed int64) AgingModel { return aging.DefaultModel(seed) }

// SimulateAging runs the monitor guard-band lifecycle of Fig. 2 over the
// given lifetime checkpoints.
func SimulateAging(c *Circuit, a *Annotation, p *Placement, pattern Pattern,
	clk Time, model AgingModel, years []float64) ([]AgingStep, error) {
	return aging.Simulate(c, a, p, pattern, clk, model, years)
}

// DegradeAnnotation ages a delay annotation by the given number of years.
func DegradeAnnotation(a *Annotation, m AgingModel, years float64) *Annotation {
	return aging.Degrade(a, m, years)
}

// PaperSuite lists the twelve Table-I evaluation circuits.
func PaperSuite() []ExperimentSpec { return exper.PaperSuite }

// ParseVerilog reads a structural gate-level Verilog module (primitive or
// NanGate-style instantiations). Multi-module sources are flattened with
// the top module inferred.
func ParseVerilog(name string, r io.Reader) (*Circuit, error) { return verilog.Parse(name, r) }

// ParseVerilogHierarchy flattens a multi-module source with an explicit
// top module.
func ParseVerilogHierarchy(name string, r io.Reader, top string) (*Circuit, error) {
	return verilog.ParseHierarchy(name, r, top)
}

// WriteVerilog writes the circuit as a NanGate-style Verilog module.
func WriteVerilog(w io.Writer, c *Circuit) error { return verilog.Write(w, c) }

// ReadPatterns parses a fastmon pattern file for the circuit.
func ReadPatterns(r io.Reader, c *Circuit) ([]Pattern, error) { return patio.Read(r, c) }

// WritePatterns writes a pattern set in the fastmon pattern format.
func WritePatterns(w io.Writer, c *Circuit, ps []Pattern) error { return patio.Write(w, c, ps) }

// ScanChains is a partition of the flip-flops into scan chains.
type ScanChains = scan.Chains

// BuildScanChains stitches the circuit's flip-flops into n balanced
// chains.
func BuildScanChains(c *Circuit, n int) *ScanChains { return scan.Build(c, n) }

// GenerateTests runs the ATPG substrate directly: compacted
// transition-fault pattern pairs for the given fault list.
func GenerateTests(ctx context.Context, c *Circuit, faults []Fault, seed int64) ([]Pattern, ATPGStats, error) {
	return atpg.Generate(ctx, c, faults, atpg.DefaultConfig(seed))
}

// ATPGStats summarizes a test-generation run.
type ATPGStats = atpg.Stats

// DiagnosisObservation is one applied test with its observed outcome.
type DiagnosisObservation = diagnose.Observation

// DiagnosisCandidate is one ranked diagnosis result.
type DiagnosisCandidate = diagnose.Candidate

// Diagnose ranks candidate small delay faults against observed FAST
// failures (cause-effect matching with the timing-accurate simulator).
func Diagnose(flow *Flow, candidates []Fault, observations []DiagnosisObservation) ([]DiagnosisCandidate, error) {
	e := sim.NewEngine(flow.Circuit, flow.Annot)
	return diagnose.Run(e, flow.Placement, flow.Patterns, candidates, observations,
		diagnose.Config{Delta: flow.Delta, Glitch: flow.DetectCfg.Glitch})
}

// SimulatePattern runs the fault-free timing-accurate simulation of one
// pattern pair and returns the waveform of every gate.
func SimulatePattern(c *Circuit, a *Annotation, p Pattern) ([]Waveform, error) {
	return sim.NewEngine(c, a).Baseline(p)
}

// RunExperiment executes the end-to-end flow for one suite circuit.
func RunExperiment(ctx context.Context, spec ExperimentSpec, cfg SuiteConfig) (*ExperimentRun, error) {
	return exper.RunCircuit(ctx, spec, cfg)
}
