package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"fastmon/internal/safeio"
)

func TestParseLinePlain(t *testing.T) {
	var rep Report
	parseLine("goos: linux", &rep)
	parseLine("cpu: Intel(R) Xeon(R) Processor @ 2.10GHz", &rep)
	parseLine("BenchmarkDetect/event-8 \t      42\t  35387135 ns/op", &rep)
	parseLine("BenchmarkDetect/naive-8 \t       1\t8573926194 ns/op", &rep)
	parseLine("BenchmarkFaultSim/event \t   10000\t    110789 ns/op\t   80944 B/op\t     470 allocs/op", &rep)
	parseLine("ok  \tfastmon/internal/sim\t8.644s", &rep)
	if rep.GOOS != "linux" || rep.CPU == "" {
		t.Fatalf("metadata not captured: %+v", rep)
	}
	if len(rep.Benchmarks) != 3 {
		t.Fatalf("parsed %d results, want 3", len(rep.Benchmarks))
	}
	b := rep.Benchmarks[2]
	if b.Name != "BenchmarkFaultSim/event" || b.Iterations != 10000 ||
		b.NsPerOp != 110789 || b.BytesPerOp != 80944 || b.AllocsPerOp != 470 {
		t.Fatalf("bad parse: %+v", b)
	}
}

func TestSpeedups(t *testing.T) {
	got := speedups([]Result{
		{Name: "BenchmarkDetect/event", NsPerOp: 100},
		{Name: "BenchmarkDetect/naive", NsPerOp: 250},
		{Name: "BenchmarkBaselineCached", NsPerOp: 5},
		{Name: "BenchmarkFaultSim/event", NsPerOp: 0}, // guarded
	})
	if len(got) != 1 || got["BenchmarkDetect"] != 2.5 {
		t.Fatalf("speedups = %v, want BenchmarkDetect:2.5 only", got)
	}
}

func TestMultiPackageMerge(t *testing.T) {
	var rep Report
	parseLine("goos: linux", &rep)
	parseLine("pkg: fastmon/internal/ilp", &rep)
	parseLine("BenchmarkSetCover/serial-8 \t 10\t 90000000 ns/op", &rep)
	parseLine("BenchmarkSetCover/parallel-8 \t 30\t 30000000 ns/op", &rep)
	parseLine("ok  \tfastmon/internal/ilp\t2.1s", &rep)
	parseLine("pkg: fastmon/internal/schedule", &rep)
	parseLine("BenchmarkScheduleBuild/serial-8 \t 5\t 200000000 ns/op", &rep)
	parseLine("BenchmarkScheduleBuild/parallel-8 \t 10\t 50000000 ns/op", &rep)
	rep.finalize()
	if rep.Package != "" || len(rep.Packages) != 2 {
		t.Fatalf("package bookkeeping: pkg=%q pkgs=%v", rep.Package, rep.Packages)
	}
	if len(rep.Benchmarks) != 4 {
		t.Fatalf("parsed %d results, want 4", len(rep.Benchmarks))
	}
	if rep.Benchmarks[0].Pkg != "fastmon/internal/ilp" ||
		rep.Benchmarks[3].Pkg != "fastmon/internal/schedule" {
		t.Fatalf("results not tagged with their package: %+v", rep.Benchmarks)
	}
	if got := rep.Speedups["ilp.BenchmarkSetCover"]; got != 3 {
		t.Fatalf("ilp speedup = %v, want 3", got)
	}
	if got := rep.Speedups["schedule.BenchmarkScheduleBuild"]; got != 4 {
		t.Fatalf("schedule speedup = %v, want 4", got)
	}
}

func TestSinglePackageKeepsLegacyShape(t *testing.T) {
	var rep Report
	parseLine("pkg: fastmon/internal/sim", &rep)
	parseLine("BenchmarkDetect/event-8 \t 10\t 100 ns/op", &rep)
	parseLine("BenchmarkDetect/naive-8 \t 10\t 250 ns/op", &rep)
	rep.finalize()
	if rep.Package != "fastmon/internal/sim" || rep.Packages != nil {
		t.Fatalf("single package must keep the legacy shape: %+v", rep)
	}
	for _, b := range rep.Benchmarks {
		if b.Pkg != "" {
			t.Fatalf("single-package results must stay untagged: %+v", b)
		}
	}
	if got := rep.Speedups["BenchmarkDetect"]; got != 2.5 {
		t.Fatalf("speedup = %v, want 2.5", got)
	}
}

func TestSerialParallelPairing(t *testing.T) {
	got := speedups([]Result{
		{Name: "BenchmarkSetCover/serial", NsPerOp: 600},
		{Name: "BenchmarkSetCover/parallel", NsPerOp: 200},
		{Name: "BenchmarkSetCover/other", NsPerOp: 1},
	})
	if len(got) != 1 || got["BenchmarkSetCover"] != 3 {
		t.Fatalf("speedups = %v, want BenchmarkSetCover:3 only", got)
	}
}

func TestWarmColdPairing(t *testing.T) {
	got := speedups([]Result{
		{Name: "BenchmarkSuiteWarm/cold", NsPerOp: 900},
		{Name: "BenchmarkSuiteWarm/warm", NsPerOp: 100},
	})
	if len(got) != 1 || got["BenchmarkSuiteWarm"] != 9 {
		t.Fatalf("speedups = %v, want BenchmarkSuiteWarm:9 only", got)
	}
}

func writeBaseline(t *testing.T, rep *Report, naked bool) string {
	t.Helper()
	var data []byte
	var err error
	if naked {
		data, err = json.Marshal(rep)
	} else {
		data, err = safeio.MarshalRecord(rep)
	}
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_base.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareFailsOnRegression(t *testing.T) {
	base := &Report{Benchmarks: []Result{
		{Name: "BenchmarkDetect/event", NsPerOp: 100},
		{Name: "BenchmarkSetCover/parallel", NsPerOp: 1000},
	}}
	path := writeBaseline(t, base, false)
	fresh := "BenchmarkDetect/event-8 \t 10\t 250 ns/op\n" + // 2.5x slower
		"BenchmarkSetCover/parallel-8 \t 10\t 1010 ns/op\n" // within threshold
	var out strings.Builder
	err := runCompare(&out, strings.NewReader(fresh), path, 0.25)
	if err == nil {
		t.Fatalf("2.5x regression passed:\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "BenchmarkDetect/event") {
		t.Fatalf("error does not name the regressed benchmark: %v", err)
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Fatalf("report does not flag the regression:\n%s", out.String())
	}
}

// TestCompareGatesZeroAllocBaseline: an entry committed at 0 allocs/op
// with a benchmem mark, or with bytes_per_op above 0, was recorded with
// -benchmem, so a single fresh allocation per op regresses it; an entry
// with neither count nor mark predates -benchmem and is not gated on
// allocations. Parsing a -benchmem line at 0 B/op sets the mark.
func TestCompareGatesZeroAllocBaseline(t *testing.T) {
	var parsed Report
	parseLine("BenchmarkPodem-8 \t 3\t 400000000 ns/op\t 0 B/op\t 0 allocs/op\n", &parsed)
	parseLine("BenchmarkLegacy-8 \t 3\t 400000000 ns/op\n", &parsed)
	if len(parsed.Benchmarks) != 2 || !parsed.Benchmarks[0].Benchmem || parsed.Benchmarks[1].Benchmem {
		t.Fatalf("benchmem marks not parsed: %+v", parsed.Benchmarks)
	}
	base := &Report{Benchmarks: []Result{
		{Name: "BenchmarkFaultSim/event", NsPerOp: 600, BytesPerOp: 52},
		{Name: "BenchmarkPodem", NsPerOp: 600, Benchmem: true},
		{Name: "BenchmarkLegacy", NsPerOp: 600},
	}}
	path := writeBaseline(t, base, false)
	for _, tc := range []struct {
		fresh, name string
		fails       bool
	}{
		{"BenchmarkFaultSim/event-8 \t 2000\t 610 ns/op\t 52 B/op\t 0 allocs/op\n", "", false},
		{"BenchmarkFaultSim/event-8 \t 2000\t 610 ns/op\t 64 B/op\t 1 allocs/op\n", "BenchmarkFaultSim/event", true},
		{"BenchmarkPodem-8 \t 2000\t 610 ns/op\t 0 B/op\t 0 allocs/op\n", "", false},
		{"BenchmarkPodem-8 \t 2000\t 610 ns/op\t 16 B/op\t 1 allocs/op\n", "BenchmarkPodem", true},
		{"BenchmarkLegacy-8 \t 2000\t 610 ns/op\t 900 B/op\t 12 allocs/op\n", "", false},
	} {
		var out strings.Builder
		err := runCompare(&out, strings.NewReader(tc.fresh), path, 0.25)
		if tc.fails != (err != nil) {
			t.Fatalf("%q: err = %v, want failure %v\n%s", tc.fresh, err, tc.fails, out.String())
		}
		if tc.fails && (!strings.Contains(err.Error(), tc.name+" (allocs)") ||
			!strings.Contains(out.String(), "ALLOC-REGRESSION")) {
			t.Fatalf("0 -> 1 allocs/op not reported as an alloc regression: %v\n%s", err, out.String())
		}
	}
}

func TestComparePassesWithinThreshold(t *testing.T) {
	base := &Report{Benchmarks: []Result{{Name: "BenchmarkDetect/event", NsPerOp: 100}}}
	path := writeBaseline(t, base, false)
	var out strings.Builder
	err := runCompare(&out, strings.NewReader("BenchmarkDetect/event-8 \t 10\t 120 ns/op\n"), path, 0.25)
	if err != nil {
		t.Fatalf("20%% slowdown failed a 25%% threshold: %v\n%s", err, out.String())
	}
}

// TestCompareFailsOnNakedBaseline: a baseline that is plain JSON, not a
// CRC-stamped record, is corrupt, and -compare fails on it.
func TestCompareFailsOnNakedBaseline(t *testing.T) {
	base := &Report{Benchmarks: []Result{{Name: "BenchmarkDetect/event", NsPerOp: 100}}}
	path := writeBaseline(t, base, true)
	var out strings.Builder
	err := runCompare(&out, strings.NewReader("BenchmarkDetect/event-8 \t 10\t 100 ns/op\n"), path, 0.25)
	if !errors.Is(err, safeio.ErrCorrupt) {
		t.Fatalf("naked-JSON baseline: err %v, want ErrCorrupt", err)
	}
}

// TestStdoutReportIsABaseline: -o - prints the same CRC-stamped record
// that -o writes to a file, so a saved copy gates -compare.
func TestStdoutReportIsABaseline(t *testing.T) {
	in := "pkg: example.com/x\nBenchmarkA-2 \t 10\t 100 ns/op\t 8 B/op\t 1 allocs/op\n"
	var stdout bytes.Buffer
	if err := run(&stdout, strings.NewReader(in), "-"); err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(t.TempDir(), "BENCH_x.json")
	if err := run(io.Discard, strings.NewReader(in), file); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stdout.Bytes(), data) {
		t.Fatalf("stdout report\n%s\ndiffers from the file\n%s", stdout.Bytes(), data)
	}
	saved := filepath.Join(t.TempDir(), "saved.json")
	if err := os.WriteFile(saved, stdout.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := runCompare(&out, strings.NewReader(in), saved, 0.25); err != nil {
		t.Fatalf("saved stdout report as a baseline: %v\n%s", err, out.String())
	}
}

// TestFoldRepeatedRuns: the lines go test -count repeats for a benchmark
// fold into one entry in place of the first, holding the median of the
// iterations, ns/op, B/op and allocs/op (the middle pair's mean for an
// even count), the ns/op range and the run count. A benchmark that ran
// once keeps its line, with no run count or range.
func TestFoldRepeatedRuns(t *testing.T) {
	rep, err := readReport(strings.NewReader(
		"pkg: fastmon/internal/ilp\n" +
			"BenchmarkSetCover/serial-2 \t 3\t 300 ns/op\t 90 B/op\t 11 allocs/op\n" +
			"BenchmarkOnce-2 \t 5\t 70 ns/op\t 8 B/op\t 1 allocs/op\n" +
			"BenchmarkSetCover/serial-2 \t 3\t 100 ns/op\t 80 B/op\t 10 allocs/op\n" +
			"BenchmarkSetCover/serial-2 \t 3\t 200 ns/op\t 85 B/op\t 12 allocs/op\n" +
			"BenchmarkPair-2 \t 4\t 10 ns/op\t 2 B/op\t 3 allocs/op\n" +
			"BenchmarkPair-2 \t 6\t 20 ns/op\t 4 B/op\t 4 allocs/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	want := []Result{
		{Name: "BenchmarkSetCover/serial", Runs: 3, Iterations: 3, NsPerOp: 200, MinNsPerOp: 100, MaxNsPerOp: 300,
			BytesPerOp: 85, AllocsPerOp: 11, Benchmem: true, procs: 2},
		{Name: "BenchmarkOnce", Iterations: 5, NsPerOp: 70, BytesPerOp: 8, AllocsPerOp: 1, Benchmem: true, procs: 2},
		{Name: "BenchmarkPair", Runs: 2, Iterations: 5, NsPerOp: 15, MinNsPerOp: 10, MaxNsPerOp: 20,
			BytesPerOp: 3, AllocsPerOp: 4, Benchmem: true, procs: 2},
	}
	if !reflect.DeepEqual(rep.Benchmarks, want) {
		t.Fatalf("folded\n%+v\nwant\n%+v", rep.Benchmarks, want)
	}
}

// TestCompareGatesMedian: -compare gates the median of repeated runs, so
// one slow run does not fail it and a slow median does.
func TestCompareGatesMedian(t *testing.T) {
	path := writeBaseline(t, &Report{Benchmarks: []Result{{Name: "BenchmarkDetect/event", NsPerOp: 100}}}, false)
	for _, tc := range []struct {
		runs  []int
		fails bool
	}{
		{[]int{110, 400, 120}, false},
		{[]int{110, 400, 300}, true},
	} {
		var in strings.Builder
		for _, ns := range tc.runs {
			fmt.Fprintf(&in, "BenchmarkDetect/event-8 \t 10\t %d ns/op\n", ns)
		}
		var out strings.Builder
		if err := runCompare(&out, strings.NewReader(in.String()), path, 1.0); (err != nil) != tc.fails {
			t.Fatalf("runs %v: err = %v, want failure %v\n%s", tc.runs, err, tc.fails, out.String())
		}
	}
}

// TestCompareAllocTolerance: allocs/op are gated at allocTolerance above
// the committed figure, however loose -threshold is for ns/op.
func TestCompareAllocTolerance(t *testing.T) {
	path := writeBaseline(t, &Report{Benchmarks: []Result{{Name: "BenchmarkSetCover/serial", NsPerOp: 100, AllocsPerOp: 1000}}}, false)
	for _, tc := range []struct {
		allocs int
		fails  bool
	}{
		{960, false},
		{1000, false},
		{1049, false},
		{1051, true},
		{1900, true},
	} {
		var out strings.Builder
		fresh := fmt.Sprintf("BenchmarkSetCover/serial-8 \t 10\t 100 ns/op\t 500 B/op\t %d allocs/op\n", tc.allocs)
		err := runCompare(&out, strings.NewReader(fresh), path, 1.0)
		if (err != nil) != tc.fails {
			t.Fatalf("%d allocs/op against 1000: err = %v, want failure %v\n%s", tc.allocs, err, tc.fails, out.String())
		}
		if tc.fails && !strings.Contains(err.Error(), "BenchmarkSetCover/serial (allocs)") {
			t.Fatalf("%d allocs/op: error does not name the alloc regression: %v", tc.allocs, err)
		}
	}
}

func TestCompareSurfacesAddedAndRemoved(t *testing.T) {
	base := &Report{Benchmarks: []Result{
		{Name: "BenchmarkDetect/event", NsPerOp: 100},
		{Name: "BenchmarkGone", NsPerOp: 5},
	}}
	deltas, added, removed := compareReports(base, &Report{Benchmarks: []Result{
		{Name: "BenchmarkDetect/event", NsPerOp: 110},
		{Name: "BenchmarkNew", NsPerOp: 7},
	}})
	if len(deltas) != 1 || deltas[0].Name != "BenchmarkDetect/event" {
		t.Fatalf("deltas = %+v", deltas)
	}
	if len(added) != 1 || added[0] != "BenchmarkNew" {
		t.Fatalf("added = %v", added)
	}
	if len(removed) != 1 || removed[0] != "BenchmarkGone" {
		t.Fatalf("removed = %v", removed)
	}
}

func TestCompareNoOverlapIsAnError(t *testing.T) {
	base := &Report{Benchmarks: []Result{{Name: "BenchmarkOther", NsPerOp: 1}}}
	path := writeBaseline(t, base, false)
	var out strings.Builder
	if err := runCompare(&out, strings.NewReader("BenchmarkDetect/event-8 \t 10\t 100 ns/op\n"), path, 0.25); err == nil {
		t.Fatal("disjoint benchmark sets compared clean")
	}
}

func TestInversionWarnings(t *testing.T) {
	warns := inversionWarnings([]Result{
		{Name: "BenchmarkSetCover/serial", NsPerOp: 200, procs: 2},
		{Name: "BenchmarkSetCover/parallel", NsPerOp: 260, procs: 2},
		{Name: "BenchmarkFine/serial", NsPerOp: 500, procs: 2},
		{Name: "BenchmarkFine/parallel", NsPerOp: 250, procs: 2},
		{Name: "BenchmarkLonely/parallel", NsPerOp: 100, procs: 2},
	})
	if len(warns) != 1 || !strings.Contains(warns[0], "BenchmarkSetCover/parallel is 1.30x slower") {
		t.Fatalf("warnings = %v, want one SetCover inversion", warns)
	}
	if inversionWarnings([]Result{
		{Name: "BenchmarkFine/serial", NsPerOp: 500, procs: 2},
		{Name: "BenchmarkFine/parallel", NsPerOp: 250, procs: 2},
	}) != nil {
		t.Fatal("healthy pairing must not warn")
	}
}

func TestWarningsLandInReport(t *testing.T) {
	in := strings.NewReader(
		"pkg: example.com/x\n" +
			"BenchmarkSlow/serial-8 10 100 ns/op\n" +
			"BenchmarkSlow/parallel-8 10 150 ns/op\n")
	rep, err := readReport(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Warnings) != 1 || !strings.Contains(rep.Warnings[0], "BenchmarkSlow/parallel") {
		t.Fatalf("Warnings = %v", rep.Warnings)
	}
}

// TestInversionWarningsNeedSeveralCPUs: go test appends -N to a benchmark
// name only when GOMAXPROCS is N > 1. Lines without it ran on one CPU,
// where /parallel and /serial both run one worker, so a slower /parallel
// is noise and draws no warning; the same lines at -2 draw one.
func TestInversionWarningsNeedSeveralCPUs(t *testing.T) {
	for _, tc := range []struct {
		suffix string
		warns  int
	}{
		{"", 0},
		{"-2", 1},
	} {
		rep, err := readReport(strings.NewReader(
			"pkg: fastmon/internal/ilp\n" +
				"BenchmarkPartialCover/serial" + tc.suffix + " \t 20\t 100000 ns/op\n" +
				"BenchmarkPartialCover/parallel" + tc.suffix + " \t 20\t 108000 ns/op\n"))
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Warnings) != tc.warns {
			t.Errorf("suffix %q: warnings = %v, want %d", tc.suffix, rep.Warnings, tc.warns)
		}
	}
}
