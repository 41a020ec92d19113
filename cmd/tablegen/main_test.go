package main

import (
	"context"
	"flag"
	"fmt"
	"strings"
	"testing"
	"time"

	"fastmon/internal/cli"
	"fastmon/internal/exper"
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

var defaultRun = flag.Bool("default-run", false, "run TestDefaultRunTableI, the default suite's Table I (about 35 s at 2 workers)")

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
