package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fastmon/internal/cli"
	"fastmon/internal/exper"
	"fastmon/internal/obs"
)

func smallCfg() exper.SuiteConfig {
	return exper.SuiteConfig{Scale: 0.05, MaxFaults: 600, Names: []string{"s9234"}}
}

// TestRunResumeUsesCheckpoint: the cache directory is the run's
// checkpoint. A rerun with the same options on the same -cache.dir reads
// every stage back and prints the same tables.
func TestRunResumeUsesCheckpoint(t *testing.T) {
	opts := options{t1: true, t2: true, t3: true, Flags: cli.Flags{CacheDir: t.TempDir()}}
	cfg := smallCfg()
	cfg.SolverBudget = 10 * time.Millisecond

	first, _, _ := runTables(t, cfg, opts)
	second, hits, misses := runTables(t, cfg, opts)
	if hits == 0 || misses != 0 {
		t.Fatalf("same-options rerun: %d hits, %d misses; want every stage read back", hits, misses)
	}
	if second != first {
		t.Fatalf("rerun tables differ\n--- first ---\n%s\n--- rerun ---\n%s", first, second)
	}
}

// TestRunFreshClearsStaleCheckpoints: results computed under another
// solver budget are not served again. A rerun at a new budget over a cache
// filled at the old one reuses the pattern set and detection data,
// rebuilds the schedules, and prints the tables of a fresh run at that
// budget.
func TestRunFreshClearsStaleCheckpoints(t *testing.T) {
	opts := options{t1: true, t2: true, t3: true, Flags: cli.Flags{CacheDir: t.TempDir()}}
	cfg := smallCfg()
	cfg.SolverBudget = 10 * time.Millisecond
	runTables(t, cfg, opts)

	cfg.SolverBudget = time.Minute
	rerun, hits, misses := runTables(t, cfg, opts)
	if hits == 0 || misses == 0 {
		t.Fatalf("new-budget rerun: %d hits, %d misses; want ATPG and detection read back and the schedules rebuilt", hits, misses)
	}
	opts.CacheDir = t.TempDir()
	if fresh, _, _ := runTables(t, cfg, opts); rerun != fresh {
		t.Fatalf("new-budget rerun differs from a fresh run\n--- rerun ---\n%s\n--- fresh ---\n%s", rerun, fresh)
	}
}

// runTables drives run() once and returns its output without the
// wall-clock line, plus the hit and miss counts of its "# cache:" summary.
func runTables(t *testing.T, cfg exper.SuiteConfig, opts options) (tables string, hits, misses int64) {
	t.Helper()
	var out, log strings.Builder
	if err := run(context.Background(), &out, &log, cfg, opts, nil); err != nil {
		t.Fatal(err)
	}
	summary := false
	for _, line := range strings.Split(log.String(), "\n") {
		if _, err := fmt.Sscanf(line, "# cache: %d hits, %d misses", &hits, &misses); err == nil {
			summary = true
		}
	}
	if !summary {
		t.Fatalf("no cache summary logged: %q", log.String())
	}
	return withoutTotal(out.String()), hits, misses
}

// withoutTotal drops the wall-clock "# total" line from run's output.
func withoutTotal(out string) string {
	var kept []string
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "# total") {
			kept = append(kept, line)
		}
	}
	return strings.Join(kept, "\n")
}

var defaultRun = flag.Bool("default-run", false, "run TestDefaultRunTableI and TestDefaultAblations, the default suite's Table I and ablations (about a minute at 2 workers)")

// TestDefaultRunTableI pins the default run's Table I: run with the
// default suite configuration, -table1 and -workers 2 must print
// testdata/default_table1.golden, apart from the "# total" line. Table I
// is the same at every worker count. The run takes about half a minute,
// so the test needs -default-run.
func TestDefaultRunTableI(t *testing.T) {
	if !*defaultRun {
		t.Skip("pass -default-run to pin the default run's Table I")
	}
	var out, log strings.Builder
	if err := run(context.Background(), &out, &log, exper.SuiteConfig{Workers: 2}, options{t1: true}, nil); err != nil {
		t.Fatalf("%v\n%s", err, log.String())
	}
	checkGolden(t, "default_table1.golden", []byte(withoutTotal(out.String())))
}

// TestDefaultLifetime pins the default run's lifetime sweep: -lifetime
// -workers 2 at the default selection, scale, fault budget and solver
// budget must print testdata/default_lifetime.golden apart from the
// "# total" line. The sweep covers the first selected circuit, s9234, and
// a run that asks for no table computes only that circuit, so the test
// takes about half a second. EXPERIMENTS.md's "Lifetime sweep" block is
// kept equal to the golden (TestExperimentsLifetime).
func TestDefaultLifetime(t *testing.T) {
	var out, log strings.Builder
	if err := run(context.Background(), &out, &log, exper.SuiteConfig{Workers: 2}, options{lifetime: true}, nil); err != nil {
		t.Fatalf("%v\n%s", err, log.String())
	}
	checkGolden(t, "default_lifetime.golden", []byte(withoutTotal(out.String())))
}

// TestDefaultFig3 pins the default run's Fig. 3 sweep: -fig3 -workers 2
// at the default selection must print testdata/default_fig3.golden apart
// from the "# total" line. Like the lifetime sweep it covers s9234 alone
// and takes well under a second. EXPERIMENTS.md's "Fig. 3" block is kept
// equal to the golden (TestExperimentsFig3).
func TestDefaultFig3(t *testing.T) {
	var out, log strings.Builder
	if err := run(context.Background(), &out, &log, exper.SuiteConfig{Workers: 2}, options{fig3: true, steps: 10}, nil); err != nil {
		t.Fatalf("%v\n%s", err, log.String())
	}
	checkGolden(t, "default_fig3.golden", []byte(withoutTotal(out.String())))
}

// TestDefaultRobust pins the default run's robustness study: -robust
// -workers 2 at the default selection, scale and fault budget must print
// testdata/default_robust.golden apart from the "# total" line. The study
// covers s9234 alone and takes about two seconds. Its full-coverage
// schedule is solved exactly at the default 5 s budget; the minute here
// keeps it exact on a slower host. EXPERIMENTS.md's "Robustness" block is
// kept equal to the golden (TestExperimentsRobustness).
func TestDefaultRobust(t *testing.T) {
	var out, log strings.Builder
	cfg := exper.SuiteConfig{Workers: 2, SolverBudget: time.Minute}
	if err := run(context.Background(), &out, &log, cfg, options{robust: true}, nil); err != nil {
		t.Fatalf("%v\n%s", err, log.String())
	}
	checkGolden(t, "default_robust.golden", []byte(withoutTotal(out.String())))
}

// TestDefaultAblations pins the default run's ablation studies: -ablate
// -workers 2 at the default selection, scale and fault budget must print
// testdata/default_ablate.golden apart from the "# total" line. The
// studies vary the flow of s9234 alone and run 70 covering solves;
// with a one-minute solver budget every one of them finishes exact on a
// 2-vCPU host (about 40 s), while at the default 5 s two of them run out.
// A degraded solve would print a host-dependent schedule, so the test
// fails when any solve degrades. It needs -default-run.
// EXPERIMENTS.md's ablation blocks are kept equal to the golden
// (TestExperimentsAblations).
func TestDefaultAblations(t *testing.T) {
	if !*defaultRun {
		t.Skip("pass -default-run to pin the default run's ablations")
	}
	var out, log strings.Builder
	dir := t.TempDir()
	cfg := exper.SuiteConfig{Workers: 2, SolverBudget: time.Minute}
	opts := options{ablate: true, Flags: cli.Flags{Manifest: filepath.Join(dir, "run.json")}}
	if err := run(context.Background(), &out, &log, cfg, opts, nil); err != nil {
		t.Fatalf("%v\n%s", err, log.String())
	}
	man, err := obs.ReadManifest(filepath.Join(dir, "run.json"))
	if err != nil {
		t.Fatal(err)
	}
	if n := man.Metrics.Counters["ilp.degraded"]; n != 0 {
		t.Fatalf("%d of the ablations' covering solves degraded at a one-minute budget; their schedules depend on the host", n)
	}
	checkGolden(t, "default_ablate.golden", []byte(withoutTotal(out.String())))
}

// TestScaleOutOfRangeWritesNothing: -scale outside (0, 1] is a usage
// error, not the scale-1.0 circuit that the generator's clamp would build
// under a header that prints the requested scale, and it writes no file.
func TestScaleOutOfRangeWritesNothing(t *testing.T) {
	cfg := smallCfg()
	cfg.Scale = 1.5
	checkUsageError(t, cfg, options{t1: true}, "-scale 1.5 outside (0, 1]")
}

// TestStepsBelowOneWritesNothing: -fig3 with -steps below one is a usage
// error, not a run that prints no sweep and succeeds, and it writes no
// file.
func TestStepsBelowOneWritesNothing(t *testing.T) {
	checkUsageError(t, smallCfg(), options{fig3: true, steps: 0}, "-steps 0")
}

// checkUsageError drives run() with the manifest and the flight dump in a
// fresh directory: it must fail with an error that names want and leave
// the directory empty.
func checkUsageError(t *testing.T, cfg exper.SuiteConfig, opts options, want string) {
	t.Helper()
	dir := t.TempDir()
	opts.Manifest, opts.Flight = filepath.Join(dir, "run.json"), filepath.Join(dir, "flight.jsonl")
	var out, log strings.Builder
	err := run(context.Background(), &out, &log, cfg, opts, nil)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want %q", err, want)
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
		t.Fatalf("usage error left %v (%v), want no file", ents, err)
	}
}

// TestRunStopEmitsPartialTables: a stop requested before the first circuit
// still renders the (empty) tables with a partial-results banner instead
// of failing.
func TestRunStopEmitsPartialTables(t *testing.T) {
	stop := make(chan struct{})
	close(stop)
	var out, log strings.Builder
	cfg := smallCfg()
	cfg.Names = []string{"s9234", "s13207"}
	err := run(context.Background(), &out, &log, cfg, options{t1: true}, stop)
	if err == nil {
		// Zero results: run() returns the partial error directly.
		t.Fatal("stopped run with zero results must error")
	}
	if !strings.Contains(err.Error(), "partial") {
		t.Fatalf("error does not mark results partial: %v", err)
	}
}
