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
	"syscall"
	"time"

	"fastmon/internal/aging"
	"fastmon/internal/cache"
	"fastmon/internal/chaos"
	"fastmon/internal/cli"
	"fastmon/internal/exper"
	"fastmon/internal/obs"
	"fastmon/internal/obs/flight"
	"fastmon/internal/schedule"
)

type options struct {
	t1, t2, t3 bool
	fig3       bool
	ablate     bool
	robust     bool
	lifetime   bool
	steps      int

	manifest string // -manifest: run.json output path ("" disables)

	// chaosRate > 0 enables deterministic fault injection at every
	// registered chaos point, driven by chaosSeed (see internal/chaos).
	chaosSeed int64
	chaosRate float64

	// rec is the flight recorder shared between main (SIGQUIT dumps) and
	// the run (event recording, failure dumps); nil when disabled with
	// -flight "".
	rec *flight.Recorder

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

		chaosSeed = flag.Int64("chaos.seed", 0, "seed for deterministic fault injection (same seed, same faults)")
		chaosRate = flag.Float64("chaos.rate", 0, "per-point fault injection probability in [0,1] (0 disables chaos)")

		flightOut = flag.String("flight", "flight.jsonl", "flight-recorder dump path, written on panics/failures/SIGQUIT (empty disables the recorder)")
		manifest  = flag.String("manifest", "run.json", "write the run manifest here (empty disables)")
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
		manifest: *manifest, chaosSeed: *chaosSeed, chaosRate: *chaosRate,
		Flags: rt,
	}
	// The flight recorder journals structured pipeline events into a
	// fixed-size ring; it is dumped as JSONL on recovered panics, failed
	// runs and SIGQUIT.
	if *flightOut != "" {
		opts.rec = flight.New(flight.DefaultCapacity)
		opts.rec.DumpPath = *flightOut
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

	// SIGQUIT dumps the flight recorder on demand without stopping the
	// run — a live post-mortem of the last ~8k pipeline events.
	quitCh := make(chan os.Signal, 1)
	signal.Notify(quitCh, syscall.SIGQUIT)
	defer signal.Stop(quitCh)
	go func() {
		for range quitCh {
			path, err := opts.rec.AutoDump("SIGQUIT")
			switch {
			case err != nil:
				fmt.Fprintf(os.Stderr, "# flight: dump failed: %v\n", err)
			case path != "":
				fmt.Fprintf(os.Stderr, "# flight: dumped %s\n", path)
			}
		}
	}()

	if err := run(ctx, os.Stdout, os.Stderr, cfg, opts, stop); err != nil {
		fmt.Fprintln(os.Stderr, "tablegen:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, out, log io.Writer, cfg exper.SuiteConfig, opts options, stop <-chan struct{}) (err error) {
	start := time.Now()
	cfg = cfg.Defaults()
	req := exper.TableRequest{T1: opts.t1, T2: opts.t2, T3: opts.t3}
	if opts.fig3 {
		req.Fig3Steps = opts.steps
	}

	// The shared runtime: profiles, telemetry (spans and metrics are
	// always collected, the manifest needs them; log output depends on -v
	// and -json-logs), the flight recorder riding the observer so every
	// stage can journal events, and the result cache.
	ctx, env, err := opts.Start(ctx, log, opts.rec)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := env.Close(); err == nil {
			err = cerr
		}
	}()
	o, rec := env.Observer, opts.rec

	// Deterministic fault injection: -chaos.rate attaches an injector to
	// the context, arming every registered chaos point in the pipeline.
	// The injection decisions are a pure function of -chaos.seed, so a
	// failing run replays from its seed alone. Every fired fault is
	// counted per point (chaos.fired.<point>) and journaled in the
	// flight recorder, so a crash dump names the injection that caused it.
	var inj *chaos.Injector
	if opts.chaosRate > 0 {
		inj = chaos.New(chaos.Config{Seed: opts.chaosSeed, Rate: opts.chaosRate,
			OnFault: func(f chaos.Fault) {
				o.Counter("chaos.fired." + f.Point).Add(1)
				rec.Record(flight.Event{Kind: flight.KindChaos, Name: f.Point,
					Stage: string(f.Stage), Detail: f.Kind.String(), Value: int64(f.Seq)})
			}})
		ctx = chaos.With(ctx, inj)
		fmt.Fprintf(log, "# chaos: injecting faults at rate %g (seed %d)\n", opts.chaosRate, opts.chaosSeed)
		defer func() {
			fmt.Fprintf(log, "# chaos: %d faults injected %v\n", inj.Fired(), inj.Snapshot())
		}()
	}

	var results []*exper.CircuitResult
	if opts.manifest != "" {
		man := obs.NewManifest("tablegen", cfg)
		defer func() {
			man.Circuits = results
			if inj != nil {
				man.Chaos = &obs.ChaosReport{Seed: inj.Seed(), Rate: opts.chaosRate,
					Fired: inj.Fired(), Points: inj.Snapshot()}
			}
			man.Cache = cache.From(ctx).Report() // nil without -cache.dir
			man.Finish(o)
			// The manifest must land even when the run itself was
			// cancelled, so the write uses a fresh context — keeping the
			// chaos injector, which tears manifests too.
			wctx := chaos.With(context.Background(), chaos.From(ctx))
			if err := man.WriteFile(wctx, opts.manifest); err != nil {
				fmt.Fprintf(log, "# manifest: %v\n", err)
				return
			}
			fmt.Fprintf(log, "# wrote manifest %s\n", opts.manifest)
		}()
	}

	progress := func(ev exper.SuiteEvent) {
		pos := fmt.Sprintf("[%d/%d]", ev.Index+1, ev.Total)
		if ev.Res == nil {
			fmt.Fprintf(log, "# %s %-8s computing...\n", pos, ev.Spec.Name)
			return
		}
		fmt.Fprintf(log, "# %s %-8s computed in %v (degradation: %s)\n",
			pos, ev.Res.Name, ev.Res.Elapsed.Round(time.Millisecond), ev.Res.Degradation)
	}
	var runErr error
	results, runErr = exper.RunSuite(ctx, cfg, req, stop, progress)
	if runErr != nil {
		// Post-mortem: dump the flight ring alongside the failure so the
		// event journal leading up to it is preserved.
		if path, derr := rec.AutoDump("suite error: " + runErr.Error()); derr != nil {
			fmt.Fprintf(log, "# flight: dump failed: %v\n", derr)
		} else if path != "" {
			fmt.Fprintf(log, "# flight: dumped %s\n", path)
		}
	}
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

	// The single-circuit studies need a live flow; they rerun the first
	// selected circuit (suite results hold only derived rows).
	if opts.ablate || opts.robust || opts.lifetime {
		specs, err := cfg.Select()
		if err != nil {
			return err
		}
		spec := specs[0]
		r, err := exper.RunCircuit(ctx, spec, cfg)
		if err != nil {
			return err
		}
		if opts.ablate {
			if err := runAblations(ctx, out, spec, cfg, r); err != nil {
				return err
			}
		}
		if opts.robust {
			if err := runRobustness(ctx, out, r); err != nil {
				return err
			}
		}
		if opts.lifetime {
			model := aging.Model{A: 0.3, N: 0.3, Seed: 5}
			pts, err := exper.LifetimeSweep(ctx, spec, cfg, model, []float64{0, 2, 5, 10, 15, 20})
			if err != nil {
				return err
			}
			exper.WriteLifetime(out, pts)
			fmt.Fprintln(out)
		}
	}
	fmt.Fprintf(out, "# total %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}

func runAblations(ctx context.Context, out io.Writer, spec exper.Spec, cfg exper.SuiteConfig, r *exper.Run) error {
	fr, err := exper.AblateMonitorFraction(ctx, spec, cfg, []float64{0.10, 0.25, 0.50, 1.0})
	if err != nil {
		return err
	}
	dr, err := exper.AblateDelayConfigs(ctx, r)
	if err != nil {
		return err
	}
	gr, err := exper.AblateGlitch(ctx, spec, cfg, []float64{0, 1, 2})
	if err != nil {
		return err
	}
	exper.WriteAblation(out, fr, dr, gr)
	fc, err := exper.AblateFreeConfig(ctx, r)
	if err != nil {
		return err
	}
	exper.WriteFreeConfig(out, fc)
	return nil
}

func runRobustness(ctx context.Context, out io.Writer, r *exper.Run) error {
	s, err := r.Flow.BuildSchedule(ctx, schedule.ILP, 1.0)
	if err != nil {
		return err
	}
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
