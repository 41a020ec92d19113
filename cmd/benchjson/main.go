// Command benchjson converts `go test -bench -json` output into a compact
// machine-readable benchmark report. It reads the test2json event stream
// (or plain -bench text) from stdin — possibly covering several packages
// in one run — extracts every benchmark result line, and writes a JSON
// document with per-benchmark numbers plus the speedups of paired
// sub-benchmarks:
//
//	go test -run '^$' -bench 'BenchmarkDetect|BenchmarkFaultSim' -benchmem -json \
//	    ./internal/sim | benchjson -o BENCH_detect.json
//	go test -run '^$' -bench 'BenchmarkSetCover|BenchmarkScheduleBuild' -benchmem -json \
//	    ./internal/ilp ./internal/schedule | benchjson -o BENCH_schedule.json
//
// Run benchmarks with -benchmem: the report always carries bytes_per_op
// and allocs_per_op, and -compare gates on allocs/op as well as ns/op.
// Run them with -count N to fold N runs into one entry: the lines that
// go test repeats for one benchmark become its median ns/op, bytes/op and
// allocs/op, with the ns/op range beside them.
//
// Two pairings are recognized: /event vs /naive variants (the fault-
// simulation engines; speedup = naive/event) and /parallel vs /serial
// variants (the worker-pool solvers; speedup = serial/parallel). When the
// stream contains a single package the report keeps the original
// single-package shape (top-level "pkg"); with several packages each
// result is tagged with its package and speedup keys are prefixed with
// the package base name. CI uploads the resulting files as build
// artifacts.
//
// With -compare FILE the fresh run on stdin is diffed against a committed
// report instead of being written out:
//
//	go test -run '^$' -bench BenchmarkDetect -json ./internal/sim |
//	    benchjson -compare BENCH_detect.json -threshold 0.25
//
// prints a per-benchmark ns/op and allocs/op delta table and exits
// non-zero when any shared benchmark's median is more than -threshold
// slower than its committed number, or allocates more than allocTolerance
// beyond its committed allocs/op (at all, when that is 0) — a cheap local
// regression gate before updating the BENCH files.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"

	"fastmon/internal/safeio"
)

// event is the subset of the test2json record we care about.
type event struct {
	Action string `json:"Action"`
	Output string `json:"Output"`
}

// Result is one benchmark: one line, or the median of the Runs lines that
// go test -count repeats for it. BytesPerOp/AllocsPerOp are always
// emitted (benchmarks are expected to run with -benchmem, so a zero means
// "genuinely allocation-free", not "memory stats missing"); Benchmem
// records that the line carried them, which is what tells a benchmark at
// 0 B/op and 0 allocs/op from one run without -benchmem.
type Result struct {
	Name string `json:"name"`
	// Pkg is the import path the result came from; set only when the
	// input stream covered more than one package.
	Pkg string `json:"pkg,omitempty"`
	// Runs, MinNsPerOp and MaxNsPerOp are set only for a folded result:
	// the number of lines and the range of their ns/op.
	Runs        int     `json:"runs,omitempty"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	MinNsPerOp  float64 `json:"min_ns_per_op,omitempty"`
	MaxNsPerOp  float64 `json:"max_ns_per_op,omitempty"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	Benchmem    bool    `json:"benchmem,omitempty"`

	// procs is the GOMAXPROCS the line ran at: the -N that go test
	// appends to the name when N > 1, else 1. It is not written out.
	procs int
}

// Report is the emitted document.
type Report struct {
	GOOS   string `json:"goos,omitempty"`
	GOARCH string `json:"goarch,omitempty"`
	CPU    string `json:"cpu,omitempty"`
	// Package is set when the stream covered exactly one package;
	// Packages lists them (in stream order) when there were several.
	Package    string             `json:"pkg,omitempty"`
	Packages   []string           `json:"pkgs,omitempty"`
	Benchmarks []Result           `json:"benchmarks"`
	Speedups   map[string]float64 `json:"speedups,omitempty"`
	// Warnings flags suspicious-but-not-failing results — currently any
	// /parallel benchmark slower than its /serial pair when both ran on
	// more than one CPU, the signature of a parallelization that stopped
	// paying for its coordination overhead (at one CPU both variants run
	// one worker, so their gap is noise). They ride in the committed
	// payload so a reader of the BENCH file sees the caveat without
	// rerunning anything.
	Warnings []string `json:"warnings,omitempty"`

	curPkg string // package of the lines being parsed right now
}

// benchLine matches a gotest benchmark result, e.g.
// "BenchmarkDetect/event-8   42   35387135 ns/op   80944 B/op   470 allocs/op".
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-(\d+))?\s+(\d+)\s+([\d.]+) ns/op(.*)$`)

func parseLine(line string, rep *Report) {
	line = strings.TrimRight(line, "\n")
	switch {
	case strings.HasPrefix(line, "goos: "):
		rep.GOOS = strings.TrimPrefix(line, "goos: ")
		return
	case strings.HasPrefix(line, "goarch: "):
		rep.GOARCH = strings.TrimPrefix(line, "goarch: ")
		return
	case strings.HasPrefix(line, "cpu: "):
		rep.CPU = strings.TrimPrefix(line, "cpu: ")
		return
	case strings.HasPrefix(line, "pkg: "):
		rep.curPkg = strings.TrimPrefix(line, "pkg: ")
		for _, p := range rep.Packages {
			if p == rep.curPkg {
				return
			}
		}
		rep.Packages = append(rep.Packages, rep.curPkg)
		return
	}
	m := benchLine.FindStringSubmatch(line)
	if m == nil {
		return
	}
	r := Result{Name: m[1], Pkg: rep.curPkg, procs: 1}
	if m[2] != "" {
		r.procs, _ = strconv.Atoi(m[2])
	}
	r.Iterations, _ = strconv.ParseInt(m[3], 10, 64)
	r.NsPerOp, _ = strconv.ParseFloat(m[4], 64)
	rest := strings.Fields(m[5])
	for i := 0; i+1 < len(rest); i += 2 {
		v, err := strconv.ParseInt(rest[i], 10, 64)
		if err != nil {
			continue
		}
		switch rest[i+1] {
		case "B/op":
			r.BytesPerOp, r.Benchmem = v, true
		case "allocs/op":
			r.AllocsPerOp, r.Benchmem = v, true
		}
	}
	rep.Benchmarks = append(rep.Benchmarks, r)
}

// finalize folds repeated runs and collapses the package bookkeeping: a
// single-package stream keeps the original report shape (top-level "pkg",
// untagged results), a multi-package merge tags every result instead.
func (rep *Report) finalize() {
	rep.Benchmarks = fold(rep.Benchmarks)
	if len(rep.Packages) <= 1 {
		if len(rep.Packages) == 1 {
			rep.Package = rep.Packages[0]
		}
		rep.Packages = nil
		for i := range rep.Benchmarks {
			rep.Benchmarks[i].Pkg = ""
		}
	}
	rep.Speedups = speedups(rep.Benchmarks)
	rep.Warnings = inversionWarnings(rep.Benchmarks)
}

// fold merges the lines that go test -count N repeats for one benchmark
// (same package and name) into one result at the place of the first: the
// median of the iterations and of each per-op figure, the range of ns/op
// and the number of runs. A benchmark that ran once keeps its line as is.
func fold(lines []Result) []Result {
	key := func(r Result) string { return r.Pkg + "\x00" + r.Name }
	runs := map[string][]Result{}
	var out []Result
	for _, r := range lines {
		if runs[key(r)] == nil {
			out = append(out, r)
		}
		runs[key(r)] = append(runs[key(r)], r)
	}
	for i := range out {
		rs := runs[key(out[i])]
		if len(rs) == 1 {
			continue
		}
		var iters, ns, bytes, allocs []float64
		for _, r := range rs {
			iters = append(iters, float64(r.Iterations))
			ns = append(ns, r.NsPerOp)
			bytes = append(bytes, float64(r.BytesPerOp))
			allocs = append(allocs, float64(r.AllocsPerOp))
		}
		r := &out[i]
		r.Runs = len(rs)
		r.Iterations = int64(math.Round(median(iters)))
		r.NsPerOp = median(ns) // sorts ns
		r.MinNsPerOp, r.MaxNsPerOp = ns[0], ns[len(ns)-1]
		r.BytesPerOp = int64(math.Round(median(bytes)))
		r.AllocsPerOp = int64(math.Round(median(allocs)))
	}
	return out
}

// median sorts xs and returns its middle value, the mean of the two middle
// values for an even length.
func median(xs []float64) float64 {
	slices.Sort(xs)
	n := len(xs)
	return (xs[(n-1)/2] + xs[n/2]) / 2
}

// inversionWarnings reports every /parallel benchmark that ran slower
// than its /serial counterpart, both on more than one CPU. A speedup
// below 1.0 is not a gate failure (the -compare threshold handles
// absolute regressions) but it inverts the pairing's reason to exist, so
// it is surfaced loudly.
func inversionWarnings(results []Result) []string {
	var warns []string
	eachPair(results, "/parallel", "/serial", func(label string, par, ser Result) {
		parNs, serNs := par.NsPerOp, ser.NsPerOp
		if par.procs > 1 && ser.procs > 1 && parNs > serNs && serNs > 0 {
			warns = append(warns, fmt.Sprintf("%s/parallel is %.2fx slower than %s/serial (%.0f vs %.0f ns/op)",
				label, parNs/serNs, label, parNs, serNs))
		}
	})
	sort.Strings(warns)
	return warns
}

// eachPair calls fn for every benchmark family with both a variant (name
// suffix fast) and a baseline (suffix base) in one package, passing the
// family's label, prefixed with the package base name when the results
// span several packages, and the two results.
func eachPair(results []Result, fast, base string, fn func(label string, fastR, baseR Result)) {
	byName := map[string]Result{}
	multi := false
	for _, r := range results {
		byName[r.Pkg+"\x00"+r.Name] = r
		multi = multi || r.Pkg != ""
	}
	for key, fastR := range byName {
		pkg, name, _ := strings.Cut(key, "\x00")
		family, ok := strings.CutSuffix(name, fast)
		if !ok {
			continue
		}
		baseR, ok := byName[pkg+"\x00"+family+base]
		if !ok {
			continue
		}
		label := family
		if multi && pkg != "" {
			label = path.Base(pkg) + "." + family
		}
		fn(label, fastR, baseR)
	}
}

// pairings maps a variant suffix to its baseline counterpart; the speedup
// is baseline time over variant time.
var pairings = []struct{ fast, base string }{
	{"/event", "/naive"},     // fault simulation: event-driven vs full resim
	{"/parallel", "/serial"}, // worker-pool solvers vs single-threaded
	{"/warm", "/cold"},       // result cache: warm re-run vs cold compute
}

// speedups derives baseline/variant ratios for every benchmark family
// that has both halves of a recognized pair. Families are matched within
// their package; keys are prefixed with the package base name when the
// report spans several packages.
func speedups(results []Result) map[string]float64 {
	out := map[string]float64{}
	for _, p := range pairings {
		eachPair(results, p.fast, p.base, func(label string, fastR, baseR Result) {
			if fastR.NsPerOp > 0 {
				out[label] = baseR.NsPerOp / fastR.NsPerOp
			}
		})
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// readReport parses a test2json (or plain -bench text) stream into a
// finalized report.
func readReport(in io.Reader) (*Report, error) {
	var rep Report
	// test2json splits a single benchmark result across several output
	// events (the name is flushed before the numbers), so reassemble the
	// full text stream first and parse it line by line afterwards.
	var text strings.Builder
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		var ev event
		if strings.HasPrefix(line, "{") && json.Unmarshal([]byte(line), &ev) == nil {
			if ev.Action == "output" {
				text.WriteString(ev.Output)
			}
			continue
		}
		text.WriteString(line)
		text.WriteByte('\n')
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, line := range strings.Split(text.String(), "\n") {
		parseLine(line, &rep)
	}
	if len(rep.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark results on stdin")
	}
	rep.finalize()
	return &rep, nil
}

// run writes the report of the bench run on in to the file out, or to
// stdout when out is "-".
func run(stdout io.Writer, in io.Reader, out string) error {
	rep, err := readReport(in)
	if err != nil {
		return err
	}
	for _, w := range rep.Warnings {
		fmt.Fprintln(os.Stderr, "benchjson: warning:", w)
	}
	// The report is a CRC-stamped record on standard output too, so a
	// saved copy serves as a -compare baseline; a file is replaced
	// atomically.
	data, err := safeio.MarshalRecordIndent(rep)
	if err != nil {
		return err
	}
	if out == "-" {
		_, err = stdout.Write(data)
		return err
	}
	return safeio.WriteFileAtomic(context.Background(), out, data, 0o644)
}

// loadReport reads a committed benchmark report, a CRC-stamped safeio
// record (the -o format). Anything else is corrupt.
func loadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := safeio.UnmarshalRecord(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// delta is one benchmark's baseline-vs-fresh comparison; Ratio is
// fresh/baseline ns/op (1.10 = 10% slower than the committed numbers) and
// AllocRatio the matching allocs/op quotient (0 when the committed entry
// predates -benchmem and has no alloc counts to gate on). An entry
// recorded with -benchmem at 0 allocs/op — its benchmem mark, or in older
// files its bytes_per_op above 0, shows the flag was on — has no
// quotient: any fresh allocation regresses it, and AllocRatio is then
// +Inf.
type delta struct {
	Name        string
	BaseNs      float64
	FreshNs     float64
	Ratio       float64
	BaseAllocs  int64
	FreshAllocs int64
	AllocRatio  float64
}

// compareReports matches benchmarks by (package, name) and returns the
// per-benchmark deltas plus names present on only one side. Benchmarks
// without a committed counterpart cannot regress; dropped ones are
// surfaced so a silently-deleted benchmark does not pass unnoticed.
func compareReports(base, fresh *Report) (deltas []delta, added, removed []string) {
	key := func(r Result) string { return r.Pkg + "\x00" + r.Name }
	label := func(r Result) string {
		if r.Pkg != "" {
			return path.Base(r.Pkg) + "." + r.Name
		}
		return r.Name
	}
	baseBy := map[string]Result{}
	baseSeen := map[string]bool{}
	for _, r := range base.Benchmarks {
		baseBy[key(r)] = r
	}
	for _, r := range fresh.Benchmarks {
		b, ok := baseBy[key(r)]
		if !ok {
			added = append(added, label(r))
			continue
		}
		baseSeen[key(r)] = true
		d := delta{
			Name:   label(r),
			BaseNs: b.NsPerOp, FreshNs: r.NsPerOp,
			BaseAllocs: b.AllocsPerOp, FreshAllocs: r.AllocsPerOp,
		}
		if b.NsPerOp > 0 {
			d.Ratio = r.NsPerOp / b.NsPerOp
		}
		switch {
		case b.AllocsPerOp > 0:
			d.AllocRatio = float64(r.AllocsPerOp) / float64(b.AllocsPerOp)
		case (b.Benchmem || b.BytesPerOp > 0) && r.AllocsPerOp > 0:
			d.AllocRatio = math.Inf(1)
		}
		deltas = append(deltas, d)
	}
	for _, r := range base.Benchmarks {
		if !baseSeen[key(r)] {
			removed = append(removed, label(r))
		}
	}
	sort.Slice(deltas, func(i, j int) bool { return deltas[i].Ratio > deltas[j].Ratio })
	sort.Strings(added)
	sort.Strings(removed)
	return deltas, added, removed
}

// allocTolerance is the allocs/op growth over a committed entry that
// -compare accepts, whatever -threshold is. Allocation counts barely depend
// on the host or the run (at -cpu 1 every covering-solver and result-cache
// entry stays within 1.2 % of its committed figure), so a few percent is
// room enough, where the ns/op threshold let allocations double.
const allocTolerance = 0.05

// runCompare diffs a fresh bench run on stdin against the committed
// report at basePath and fails (non-nil error) when any shared benchmark
// is more than threshold slower than its committed ns/op, or allocates
// more than allocTolerance beyond its committed allocs/op. It never
// writes -o: compare mode is a read-only regression gate.
func runCompare(w io.Writer, in io.Reader, basePath string, threshold float64) error {
	fresh, err := readReport(in)
	if err != nil {
		return err
	}
	base, err := loadReport(basePath)
	if err != nil {
		return err
	}
	deltas, added, removed := compareReports(base, fresh)
	if len(deltas) == 0 {
		return fmt.Errorf("no benchmarks in common with %s", basePath)
	}
	var regressed []string
	fmt.Fprintf(w, "# benchjson compare vs %s (threshold +%.0f%% ns/op, +%.0f%% allocs/op)\n",
		basePath, threshold*100, allocTolerance*100)
	for _, d := range deltas {
		mark := ""
		if d.Ratio > 1+threshold {
			mark = "  REGRESSION"
			regressed = append(regressed, d.Name)
		}
		if d.AllocRatio > 1+allocTolerance {
			mark += "  ALLOC-REGRESSION"
			regressed = append(regressed, d.Name+" (allocs)")
		}
		fmt.Fprintf(w, "%-48s %14.0f -> %14.0f ns/op  %+.1f%%  %8d -> %8d allocs/op%s\n",
			d.Name, d.BaseNs, d.FreshNs, (d.Ratio-1)*100, d.BaseAllocs, d.FreshAllocs, mark)
	}
	for _, n := range added {
		fmt.Fprintf(w, "%-48s (new: no committed baseline)\n", n)
	}
	for _, n := range removed {
		fmt.Fprintf(w, "%-48s (missing from this run)\n", n)
	}
	if len(regressed) > 0 {
		return fmt.Errorf("%d benchmark(s) regressed beyond +%.0f%% ns/op or +%.0f%% allocs/op: %s",
			len(regressed), threshold*100, allocTolerance*100, strings.Join(regressed, ", "))
	}
	return nil
}

func main() {
	out := flag.String("o", "BENCH_detect.json", "output path (- for stdout)")
	compare := flag.String("compare", "", "diff the fresh run on stdin against this committed report instead of writing -o; exit 1 on regression")
	threshold := flag.Float64("threshold", 0.25, "relative ns/op slowdown that fails -compare (0.25 = 25%)")
	flag.Parse()
	var err error
	if *compare != "" {
		err = runCompare(os.Stdout, os.Stdin, *compare, *threshold)
	} else {
		err = run(os.Stdout, os.Stdin, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
