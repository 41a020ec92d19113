// Command fastmon runs the complete hidden-delay-fault test flow on a
// netlist: timing analysis, monitor placement, fault classification,
// timing-accurate fault simulation, detection-range analysis and
// test-schedule optimization.
//
// Usage:
//
//	fastmon -bench s27.bench [-sdf s27.sdf] [-method ilp] [-coverage 1.0]
//	fastmon -gen s9234 -scale 0.1 -method ilp
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"time"

	"fastmon"
	"fastmon/internal/cli"
	"fastmon/internal/exper"
)

func main() {
	// Ctrl-C cancels the flow: the running stage returns promptly with a
	// stage-attributed cancellation error instead of leaving a half-done
	// run hanging.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errBadFlags):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "fastmon:", err)
		os.Exit(1)
	}
}

// errBadFlags marks a command line the flag set rejected; the flag set
// has already printed why, with the usage text.
var errBadFlags = errors.New("bad command line")

// run parses the command line args, runs the flow and writes its report
// to stdout; the runtime's logs and status lines, and the usage text, go
// to stderr. -h returns flag.ErrHelp.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		benchPath = fs.String("bench", "", "netlist to test (.bench format)")
		vlogPath  = fs.String("verilog", "", "netlist to test (structural Verilog; hierarchies are flattened)")
		topName   = fs.String("top", "", "top module for -verilog (default: inferred)")
		sdfPath   = fs.String("sdf", "", "optional SDF delay annotation")
		genName   = fs.String("gen", "", "generate a suite circuit instead of reading one (e.g. s9234)")
		scale     = fs.Float64("scale", 0.1, "size scale for -gen (1.0 = paper size)")
		method    = fs.String("method", "ilp", "schedule method: conv, heur or ilp")
		coverage  = fs.Float64("coverage", 1.0, "target coverage of target HDFs (0..1]")
		sample    = fs.Int("sample", 0, "fault sampling stride: keep every k-th fault (0 or 1 keeps every fault)")
		budget    = fs.Duration("budget", 10*time.Second, "time budget per exact covering solve")
		seed      = fs.Int64("seed", 1, "ATPG seed")
		workers   = fs.Int("workers", 0, "goroutines for every parallel stage: fault simulation and the covering solvers (0 = all CPUs)")
		patsOut   = fs.String("write-patterns", "", "write the generated pattern set to this file")
	)
	var rt cli.Flags
	rt.Register(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return fmt.Errorf("%w: %w", errBadFlags, err)
	}

	// Check the command line before the runtime starts, so that a usage
	// error leaves no manifest and no flight dump behind.
	spec, known := exper.SpecByName(*genName)
	switch {
	case *benchPath != "" || *vlogPath != "":
	case *genName == "":
		return fmt.Errorf("need -bench FILE, -verilog FILE or -gen NAME")
	case !known:
		return fmt.Errorf("unknown suite circuit %q (try s9234..p141k)", *genName)
	}
	if *scale <= 0 || *scale > 1 {
		return fmt.Errorf("-scale %g outside (0, 1]", *scale)
	}
	if *coverage <= 0 || *coverage > 1 {
		return fmt.Errorf("-coverage %g outside (0, 1]", *coverage)
	}
	methods := map[string]fastmon.Method{"conv": fastmon.MethodConventional, "heur": fastmon.MethodHeuristic, "ilp": fastmon.MethodILP}
	m, ok := methods[*method]
	if !ok {
		return fmt.Errorf("unknown method %q", *method)
	}
	cfg := fastmon.Config{FaultSampleK: *sample, ATPGSeed: *seed, SolverBudget: *budget, Workers: *workers}

	// The manifest records the netlist, the schedule request and the flow
	// configuration, and its payload is the circuit's result once the
	// flow has run.
	manifestConfig := struct {
		Bench, Verilog, Top, SDF, Gen string `json:",omitempty"`
		Scale, Coverage               float64
		Method                        string
		Flow                          fastmon.Config
	}{*benchPath, *vlogPath, *topName, *sdfPath, *genName, *scale, *coverage, *method, cfg.Defaults()}
	ctx, env, err := rt.Start(ctx, stderr, "fastmon", manifestConfig)
	if err != nil {
		return err
	}
	var circuits []*exper.CircuitResult
	defer func() {
		if cerr := env.Close(circuits, err); err == nil {
			err = cerr
		}
	}()

	lib := fastmon.NanGate45()
	c, err := readCircuit(*benchPath, *vlogPath, *topName, spec, *scale)
	if err != nil {
		return err
	}

	var annot *fastmon.Annotation
	if *sdfPath != "" {
		f, err := os.Open(*sdfPath)
		if err != nil {
			return err
		}
		a, err := fastmon.ReadSDF(f, c, lib)
		f.Close()
		if err != nil {
			return err
		}
		annot = a
	}

	start := time.Now()
	flow, err := fastmon.RunAnnotated(ctx, c, lib, annot, cfg)
	if err != nil {
		return err
	}
	row := exper.TableI(&exper.Run{Spec: exper.Spec{Name: c.Name}, Flow: flow})
	res := &exper.CircuitResult{Name: c.Name, T1: &row}
	circuits = append(circuits, res)
	defer func() { res.Elapsed = time.Since(start) }() // before Close writes it

	st := c.Stats()
	fmt.Fprintf(stdout, "circuit   %s\n", st)
	fmt.Fprintf(stdout, "clocks    t_nom=%v (f_nom=%v)  t_min=%v (f_max=%v)\n",
		flow.Clk, fastmon.Freq(1e12/float64(flow.Clk)), flow.TMin, fastmon.Freq(1e12/float64(flow.TMin)))
	fmt.Fprintf(stdout, "faults    δ=%v, universe=%d (sampled), HDF candidates=%d\n",
		flow.Delta, len(flow.Universe), len(flow.HDFs))
	fmt.Fprintf(stdout, "monitors  %s, overhead %.0f GE (%.1f%% of the design)\n",
		flow.Placement, flow.Placement.OverheadGE(), flow.Placement.RelativeOverhead(c)*100)
	fmt.Fprintf(stdout, "patterns  %d (ATPG coverage %.2f%%, %d untestable, %d aborted)\n",
		len(flow.Patterns), flow.ATPGStats.Coverage()*100, flow.ATPGStats.Untestable, flow.ATPGStats.Aborted)
	fmt.Fprintf(stdout, "detected  conv=%d  prop=%d  at-speed-via-monitor=%d  targets=%d\n",
		len(flow.ConvDetected), len(flow.PropDetected), len(flow.AtSpeedMonitor), len(flow.TargetIdx))

	if *patsOut != "" {
		f, err := os.Create(*patsOut)
		if err != nil {
			return err
		}
		if err := fastmon.WritePatterns(f, c, flow.Patterns); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "patterns  written to %s\n", *patsOut)
	}

	if len(flow.TargetData) == 0 {
		fmt.Fprintln(stdout, "schedule  (no target faults: nothing to schedule)")
		return nil
	}
	s, err := flow.BuildSchedule(ctx, m, *coverage)
	if err != nil {
		return err
	}
	if err := fastmon.ValidateSchedule(flow.TargetData, s, flow.ScheduleOptions(m, *coverage)); err != nil {
		return fmt.Errorf("schedule validation failed: %w", err)
	}
	res.Degradation = s.Degradation.String()
	fmt.Fprintf(stdout, "schedule  method=%v coverage=%d/%d |F|=%d |S|=%d (freq-optimal=%v)\n",
		s.Method, s.Covered, s.Coverable, s.NumFrequencies(), s.Size(), s.FreqOptimal)
	if s.Solver.Solves > 0 {
		res.Solver = &s.Solver
		fmt.Fprintf(stdout, "solver    %d exact solves, %d nodes, %d incumbents (max gap %.2f)\n",
			s.Solver.Solves, s.Solver.Nodes, s.Solver.Incumbents, s.Solver.MaxGap)
	}
	if rt.Verbose {
		for _, p := range s.Periods {
			fmt.Fprintf(stdout, "  period %v (%v): %d faults, %d pattern-configs\n",
				p.Period, fastmon.Freq(1e12/float64(p.Period)), len(p.Faults), len(p.Combos))
		}
	}
	fmt.Fprintf(stdout, "elapsed   %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// readCircuit reads the netlist the command line names: the .bench file
// at benchPath, else the structural Verilog file at vlogPath (top module
// top), else the suite circuit spec at scale.
func readCircuit(benchPath, vlogPath, top string, spec exper.Spec, scale float64) (*fastmon.Circuit, error) {
	switch {
	case benchPath != "":
		f, err := os.Open(benchPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return fastmon.ParseBench(benchPath, f)
	case vlogPath != "":
		f, err := os.Open(vlogPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return fastmon.ParseVerilogHierarchy(vlogPath, f, top)
	}
	return spec.Build(scale)
}
