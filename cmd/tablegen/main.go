// Command tablegen regenerates the paper's evaluation artifacts: the HDF
// coverage sweep of Fig. 3 and Tables I, II and III, on the synthetic
// circuit suite (see DESIGN.md for the substitution rationale).
//
// Usage:
//
//	tablegen -all -scale 0.08
//	tablegen -table2 -circuits s9234,s13207 -scale 0.1
//	tablegen -fig3 -circuits s9234
//	tablegen -all -cache.dir out/cache   # rerun the same command to resume
//
// With -cache.dir DIR every pipeline stage (ATPG, fault simulation, each
// schedule) is stored in DIR as soon as it completes, keyed on its actual
// inputs; rerunning after an interrupt or a crash reads the completed
// stages back and computes only the rest. The first SIGINT (Ctrl-C)
// finishes the circuits in flight, then exits with the tables computed so
// far; a second SIGINT aborts the in-flight circuits themselves.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"time"

	"fastmon/internal/aging"
	"fastmon/internal/cli"
	"fastmon/internal/exper"
	"fastmon/internal/schedule"
)

type options struct {
	t1, t2, t3 bool
	fig3       bool
	ablate     bool
	robust     bool
	lifetime   bool
	steps      int

	cli.Flags
}

func main() {
	def := exper.SuiteConfig{}.Defaults()
	var (
		t1       = flag.Bool("table1", false, "regenerate Table I")
		t2       = flag.Bool("table2", false, "regenerate Table II")
		t3       = flag.Bool("table3", false, "regenerate Table III")
		fig3     = flag.Bool("fig3", false, "regenerate the Fig. 3 sweep (first selected circuit)")
		ablate   = flag.Bool("ablate", false, "run the ablation studies (first selected circuit)")
		robust   = flag.Bool("robust", false, "run the variation-robustness study (first selected circuit)")
		lifetime = flag.Bool("lifetime", false, "run the aging lifetime sweep (first selected circuit)")
		all      = flag.Bool("all", false, "regenerate everything")
		scale    = flag.Float64("scale", def.Scale, "circuit size scale (1.0 = paper sizes)")
		circuits = flag.String("circuits", "", "comma-separated subset (default: all twelve)")
		maxF     = flag.Int("maxfaults", def.MaxFaults, "fault-sample budget per circuit")
		budget   = flag.Duration("budget", def.SolverBudget, "time budget per exact covering solve")
		steps    = flag.Int("steps", 10, "sweep points for -fig3")
		workers  = flag.Int("workers", 0, "goroutines for every parallel stage: concurrent circuits, fault simulation and the covering solvers (0 = all CPUs)")
	)
	var rt cli.Flags
	rt.Register(flag.CommandLine)
	flag.Parse()
	if !*t1 && !*t2 && !*t3 && !*fig3 && !*ablate && !*robust && !*lifetime {
		*all = true
	}
	if *all {
		*t1, *t2, *t3, *fig3 = true, true, true, true
	}
	cfg := exper.SuiteConfig{Scale: *scale, MaxFaults: *maxF, SolverBudget: *budget, Workers: *workers}
	if *circuits != "" {
		cfg.Names = strings.Split(*circuits, ",")
	}
	opts := options{
		t1: *t1, t2: *t2, t3: *t3, fig3: *fig3,
		ablate: *ablate, robust: *robust, lifetime: *lifetime, steps: *steps,
		Flags: rt,
	}

	// Two-stage interrupt handling: the first SIGINT requests a graceful
	// stop (finish the circuits in flight, emit partial tables), the second
	// cancels the in-flight work itself.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stop := make(chan struct{})
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt)
	defer signal.Stop(sigCh)
	go func() {
		<-sigCh
		fmt.Fprintln(os.Stderr, "# interrupt: finishing the current circuit (Ctrl-C again to abort it)")
		close(stop)
		<-sigCh
		fmt.Fprintln(os.Stderr, "# second interrupt: aborting")
		cancel()
	}()

	if err := run(ctx, os.Stdout, os.Stderr, cfg, opts, stop); err != nil {
		fmt.Fprintln(os.Stderr, "tablegen:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, out, log io.Writer, cfg exper.SuiteConfig, opts options, stop <-chan struct{}) (err error) {
	start := time.Now()
	cfg = cfg.Defaults()
	// Check the command line before the runtime starts, so that a usage
	// error leaves no manifest and no flight dump behind.
	if cfg.Scale <= 0 || cfg.Scale > 1 {
		return fmt.Errorf("-scale %g outside (0, 1]", cfg.Scale)
	}
	if opts.fig3 && opts.steps < 1 {
		return fmt.Errorf("-steps %d: the Fig. 3 sweep needs at least one point", opts.steps)
	}
	if !opts.t1 && !opts.t2 && !opts.t3 {
		// The studies report on the first selected circuit alone, so a
		// run that asks for no table computes only that circuit.
		specs, err := cfg.Select()
		if err != nil {
			return err
		}
		cfg.Names = []string{specs[0].Name}
	}
	req := exper.TableRequest{T1: opts.t1, T2: opts.t2, T3: opts.t3}
	if opts.fig3 {
		req.Fig3Steps = opts.steps
	}

	// The shared runtime: profiles, telemetry (spans and metrics are
	// always collected, the manifest needs them; log output depends on -v
	// and -json-logs), the flight recorder, the result cache and the
	// manifest, which Close writes with the suite's results. A suite
	// failure also dumps the flight recorder there.
	ctx, env, err := opts.Start(ctx, log, "tablegen", cfg)
	if err != nil {
		return err
	}
	var (
		results []*exper.CircuitResult
		runErr  error
	)
	defer func() {
		if cerr := env.Close(results, runErr); err == nil {
			err = cerr
		}
	}()

	// The single-circuit studies share the first circuit's flow, which
	// the suite hands over with its completion event.
	studies := opts.ablate || opts.robust || opts.lifetime
	var first *exper.Run
	progress := func(ev exper.SuiteEvent) {
		pos := fmt.Sprintf("[%d/%d]", ev.Index+1, ev.Total)
		if ev.Res == nil {
			fmt.Fprintf(log, "# %s %-8s computing...\n", pos, ev.Spec.Name)
			return
		}
		fmt.Fprintf(log, "# %s %-8s computed in %v (degradation: %s)\n",
			pos, ev.Res.Name, ev.Res.Elapsed.Round(time.Millisecond), ev.Res.Degradation)
		if ev.Index == 0 && studies {
			first = ev.Run
		}
	}
	results, runErr = exper.RunSuite(ctx, cfg, req, stop, progress)
	if runErr != nil && len(results) == 0 {
		return runErr
	}

	fmt.Fprintf(out, "# fastmon tablegen — scale %.3f, %d circuits, fault budget %d\n",
		cfg.Scale, len(results), cfg.MaxFaults)
	fmt.Fprintf(out, "# shapes are comparable to the paper; absolute values scale with circuit size\n\n")
	if runErr != nil {
		fmt.Fprintf(out, "# PARTIAL RESULTS: %v\n\n", runErr)
	}

	var t1rows []exper.T1Row
	var t2rows []exper.T2Row
	var t3rows []exper.T3Row
	for _, res := range results {
		if res.T1 != nil {
			t1rows = append(t1rows, *res.T1)
		}
		if res.T2 != nil {
			t2rows = append(t2rows, *res.T2)
		}
		if res.T3 != nil {
			t3rows = append(t3rows, *res.T3)
		}
	}
	if opts.fig3 && len(results) > 0 && len(results[0].Fig3) > 0 {
		exper.WriteFig3(out, results[0].Fig3)
		fmt.Fprintf(out, "(circuit: %s)\n\n", results[0].Name)
	}
	if opts.t1 {
		exper.WriteTableI(out, t1rows)
		fmt.Fprintln(out)
	}
	if opts.t2 {
		exper.WriteTableII(out, t2rows)
		fmt.Fprintln(out)
	}
	if opts.t3 {
		exper.WriteTableIII(out, t3rows)
		fmt.Fprintln(out)
	}
	if opts.t1 && opts.t2 && opts.t3 && runErr == nil {
		// Qualitative comparison against the published tables.
		exper.WriteShapeChecks(out, exper.ShapeChecks(t1rows, t2rows, t3rows))
		fmt.Fprintln(out)
	}
	if runErr != nil {
		fmt.Fprintf(out, "# total %v (stopped early)\n", time.Since(start).Round(time.Millisecond))
		return nil
	}

	if opts.ablate || opts.robust {
		// Ablations A, B and D and the robustness study share the first
		// circuit's full-coverage ILP schedule.
		base, err := first.Flow.BuildSchedule(ctx, schedule.ILP, 1.0)
		if err != nil {
			return err
		}
		if opts.ablate {
			if err := runAblations(ctx, out, first, base); err != nil {
				return err
			}
		}
		if opts.robust {
			if err := runRobustness(ctx, out, first, base); err != nil {
				return err
			}
		}
	}
	if opts.lifetime {
		model := aging.Model{A: 0.3, N: 0.3, Seed: 5}
		pts, err := exper.LifetimeSweep(ctx, first.Spec, cfg, model, []float64{0, 2, 5, 10, 15, 20})
		if err != nil {
			return err
		}
		exper.WriteLifetime(out, pts)
		fmt.Fprintln(out)
	}
	fmt.Fprintf(out, "# total %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}

func runAblations(ctx context.Context, out io.Writer, r *exper.Run, base *schedule.Schedule) error {
	fr, err := exper.AblateMonitorFraction(ctx, r, base, []float64{0.10, 0.25, 0.50, 1.0})
	if err != nil {
		return err
	}
	dr, err := exper.AblateDelayConfigs(ctx, r, base)
	if err != nil {
		return err
	}
	gr, err := exper.AblateGlitch(ctx, r, []float64{0, 1, 2})
	if err != nil {
		return err
	}
	exper.WriteAblation(out, fr, dr, gr)
	fc, err := exper.AblateFreeConfig(ctx, r, base)
	if err != nil {
		return err
	}
	exper.WriteFreeConfig(out, fc)
	return nil
}

func runRobustness(ctx context.Context, out io.Writer, r *exper.Run, s *schedule.Schedule) error {
	var pts []exper.RobustnessPoint
	for _, sigma := range []float64{0, 0.02, 0.05, 0.10} {
		p, err := exper.VariationRobustness(ctx, r, s, sigma, 5, 1234)
		if err != nil {
			return err
		}
		pts = append(pts, p)
	}
	exper.WriteRobustness(out, pts)
	fmt.Fprintln(out)
	return nil
}
