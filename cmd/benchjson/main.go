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
// non-zero when any shared benchmark is more than -threshold slower than
// its committed number, or allocates more than -threshold beyond its
// committed allocs/op (at all, when that is 0) — a cheap local regression
// gate before updating the BENCH files.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"fastmon/internal/chaos"
	"fastmon/internal/fmerr"
	"fastmon/internal/safeio"
)

// ptBench is the chaos injection point for benchmark-report emission.
var ptBench = chaos.Register("bench.write", fmerr.StageIO)

// event is the subset of the test2json record we care about.
type event struct {
	Action string `json:"Action"`
	Output string `json:"Output"`
}

// Result is one benchmark line. BytesPerOp/AllocsPerOp are always
// emitted (benchmarks are expected to run with -benchmem, so a zero means
// "genuinely allocation-free", not "memory stats missing"); Benchmem
// records that the line carried them, which is what tells a benchmark at
// 0 B/op and 0 allocs/op from one run without -benchmem.
type Result struct {
	Name string `json:"name"`
	// Pkg is the import path the result came from; set only when the
	// input stream covered more than one package.
	Pkg         string  `json:"pkg,omitempty"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	Benchmem    bool    `json:"benchmem,omitempty"`
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
	// /parallel benchmark slower than its /serial pair, the signature of a
	// parallelization that stopped paying for its coordination overhead.
	// They ride in the committed payload so a reader of the BENCH file sees
	// the caveat without rerunning anything.
	Warnings []string `json:"warnings,omitempty"`

	curPkg string // package of the lines being parsed right now
}

// benchLine matches a gotest benchmark result, e.g.
// "BenchmarkDetect/event-8   42   35387135 ns/op   80944 B/op   470 allocs/op".
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op(.*)$`)

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
	r := Result{Name: m[1], Pkg: rep.curPkg}
	r.Iterations, _ = strconv.ParseInt(m[2], 10, 64)
	r.NsPerOp, _ = strconv.ParseFloat(m[3], 64)
	rest := strings.Fields(m[4])
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

// finalize collapses the package bookkeeping: a single-package stream
// keeps the original report shape (top-level "pkg", untagged results),
// a multi-package merge tags every result instead.
func (rep *Report) finalize() {
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

// inversionWarnings reports every /parallel benchmark that ran slower
// than its /serial counterpart. A speedup below 1.0 is not a gate failure
// (the -compare threshold handles absolute regressions) but it inverts
// the pairing's reason to exist, so it is surfaced loudly.
func inversionWarnings(results []Result) []string {
	byName := map[string]float64{}
	multi := false
	for _, r := range results {
		byName[r.Pkg+"\x00"+r.Name] = r.NsPerOp
		if r.Pkg != "" {
			multi = true
		}
	}
	var warns []string
	for key, parNs := range byName {
		pkg, name, _ := strings.Cut(key, "\x00")
		family, ok := strings.CutSuffix(name, "/parallel")
		if !ok {
			continue
		}
		serNs, ok := byName[pkg+"\x00"+family+"/serial"]
		if !ok || parNs <= serNs || serNs <= 0 {
			continue
		}
		label := family
		if multi && pkg != "" {
			label = path.Base(pkg) + "." + family
		}
		warns = append(warns, fmt.Sprintf("%s/parallel is %.2fx slower than %s/serial (%.0f vs %.0f ns/op)",
			label, parNs/serNs, label, parNs, serNs))
	}
	sort.Strings(warns)
	return warns
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
	byName := map[string]float64{}
	multi := false
	for _, r := range results {
		byName[r.Pkg+"\x00"+r.Name] = r.NsPerOp
		if r.Pkg != "" {
			multi = true
		}
	}
	out := map[string]float64{}
	for key, fastNs := range byName {
		pkg, name, _ := strings.Cut(key, "\x00")
		for _, p := range pairings {
			family, ok := strings.CutSuffix(name, p.fast)
			if !ok {
				continue
			}
			baseNs, ok := byName[pkg+"\x00"+family+p.base]
			if !ok || fastNs <= 0 {
				continue
			}
			label := family
			if multi && pkg != "" {
				label = path.Base(pkg) + "." + family
			}
			out[label] = baseNs / fastNs
		}
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

func run(out string) error {
	rep, err := readReport(os.Stdin)
	if err != nil {
		return err
	}
	for _, w := range rep.Warnings {
		fmt.Fprintln(os.Stderr, "benchjson: warning:", w)
	}
	if out == "-" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(append(data, '\n'))
		return err
	}
	// File output goes through the durable-I/O layer: CRC-stamped record,
	// atomic fsync-then-rename replacement, transient-failure retry.
	data, err := safeio.MarshalRecordIndent(rep)
	if err != nil {
		return err
	}
	ctx := context.Background()
	return safeio.Retry(ctx, "bench-report", func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmerr.NewPanic(chaos.StageOf(r, fmerr.StageIO), out, r)
			}
		}()
		if err := chaos.Point(ctx, ptBench); err != nil {
			return err
		}
		return safeio.WriteFileAtomic(ctx, out, data, 0o644)
	})
}

// loadReport reads a committed benchmark report: a CRC-stamped safeio
// record (the -o format) or legacy naked JSON.
func loadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := safeio.UnmarshalRecord(data, &rep); err != nil {
		if !errors.Is(err, safeio.ErrNotRecord) {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if jerr := json.Unmarshal(data, &rep); jerr != nil {
			return nil, fmt.Errorf("%s: %w", path, jerr)
		}
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

// runCompare diffs a fresh bench run on stdin against the committed
// report at basePath and fails (non-nil error) when any shared benchmark
// is more than threshold slower than its committed ns/op, or allocates
// more than threshold beyond its committed allocs/op. It never writes
// -o: compare mode is a read-only regression gate.
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
	fmt.Fprintf(w, "# benchjson compare vs %s (threshold +%.0f%%)\n", basePath, threshold*100)
	for _, d := range deltas {
		mark := ""
		if d.Ratio > 1+threshold {
			mark = "  REGRESSION"
			regressed = append(regressed, d.Name)
		}
		if d.AllocRatio > 1+threshold {
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
		return fmt.Errorf("%d benchmark(s) regressed beyond +%.0f%%: %s",
			len(regressed), threshold*100, strings.Join(regressed, ", "))
	}
	return nil
}

func main() {
	out := flag.String("o", "BENCH_detect.json", "output path (- for stdout)")
	compare := flag.String("compare", "", "diff the fresh run on stdin against this committed report instead of writing -o; exit 1 on regression")
	threshold := flag.Float64("threshold", 0.25, "relative ns/op slowdown or allocs/op growth that fails -compare (0.25 = 25%)")
	flag.Parse()
	var err error
	if *compare != "" {
		err = runCompare(os.Stdout, os.Stdin, *compare, *threshold)
	} else {
		err = run(*out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
