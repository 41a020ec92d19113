// Command bench is the end-to-end benchmark of the Fig.-4 pipeline: netlist,
// ATPG, timing-accurate fault simulation, detection ranges and the
// two-step covering schedule of Tables I–III, plus the result cache and
// the lifetime sweep. Run it from the repository root (bench/run.sh builds
// it first); README.md describes the workloads and metrics.
//
// With --workload it runs one workload in this process and prints, as the
// last line of standard output, one JSON object with the keys correct,
// attempted, failed and metrics: the end-to-end metrics, or with --trace 1
// the per-layer ones. Without --workload it runs every workload in a
// child process of its own and prints a table; --repeat N reports the
// spread of every metric over N runs per workload; --pin N recomputes
// bench/pins.json: the pinned output digests for seeds 0 to N-1 and the
// schedule quality of the sched-s9234 pool.
package main

import (
	"bufio"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// buildDir holds everything a run writes, relative to the repository
// root: temporary result caches under tmp/ and span files under trace/.
const buildDir = ".bench_build"

//go:embed pins.json
var pinsJSON []byte

func main() {
	name := flag.String("workload", "", "run this workload in this process (default: every workload, each in a child process)")
	seed := flag.Int64("seed", 1, "seed the workload inputs are derived from")
	seconds := flag.Int("seconds", 0, "seconds each run measures (0: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "1: record spans and report per-layer metrics instead of end-to-end ones")
	repeat := flag.Int("repeat", 0, "run every workload this many times and report each metric's spread")
	pin := flag.Int("pin", 0, "recompute bench/pins.json: output digests of seeds 0..N-1 and the schedule quality")
	flag.Parse()

	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1, not %d", *trace))
	}
	if *seconds <= 0 {
		*seconds = spec.RunSeconds
	}
	var pins pinSet
	if err := json.Unmarshal(pinsJSON, &pins); err != nil {
		fatal(fmt.Errorf("pins.json: %w", err))
	}
	switch {
	case *pin > 0:
		err = pinAll(*pin)
	case *name != "":
		err = single(spec, *name, *seed, *seconds, *trace == 1, &pins)
	default:
		err = orchestrate(spec, *seed, *seconds, *trace == 1, max(*repeat, 1))
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// pinSet is bench/pins.json: per workload and seed the sha256 of the
// run's pinned output, and the schedule quality of the sched-s9234 pool.
type pinSet struct {
	Digests   map[string]map[string]string `json:"digests"`
	Schedules *quality                     `json:"schedules"`
}

// newRun prepares a run of workload d in this process, checked against
// pins unless they are nil. A traced run runs every stage on one worker,
// so that a replayed stage repeats the work the traced call did, on the
// same schedule.
func newRun(d def, seed int64, trace bool, pins *pinSet) (*run, error) {
	root := filepath.Join(buildDir, "tmp")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	r := &run{ctx: context.Background(), workload: d.name, seed: seed, p: d.params, root: root}
	if trace {
		r.tr = newTracer()
		r.p.Workers = 1
	}
	if pins != nil {
		r.wantDigest = pins.Digests[d.name]
		if d.name == "sched-s9234" {
			r.wantQuality = pins.Schedules
		}
	}
	return r, nil
}

// errIncorrect reports a run whose outputs failed a check.
var errIncorrect = errors.New("output checks failed")

// single runs one workload in this process and prints its result line.
func single(spec *benchSpec, name string, seed int64, seconds int, trace bool, pins *pinSet) error {
	d, ok := lookup(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	r, err := newRun(d, seed, trace, pins)
	if err != nil {
		return err
	}
	res := execute(r, d.make(), float64(seconds), 0)
	if len(res.problems) > 0 {
		fmt.Fprintf(os.Stderr, "# %s seed %d: %d failed:\n#   %s\n", name, seed, res.failed, joinProblems(res.problems))
	}
	values := res.endToEnd
	if trace {
		values = res.perLayer
		res.tr.summary(os.Stderr, name, res.passes)
		path, err := res.tr.write(filepath.Join(buildDir, "trace"), name, seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "# spans written to %s\n", path)
	}
	metrics := map[string]any{}
	for _, m := range spec.metrics(trace) {
		v, ok := values[m.Name]
		if !ok {
			return fmt.Errorf("metric %s is not computed", m.Name)
		}
		metrics[m.Name] = map[string]any{"value": v, "unit": m.Unit}
	}
	if len(metrics) != len(values) {
		return fmt.Errorf("%d metrics computed, %d listed in BENCHMARK.json", len(values), len(metrics))
	}
	line, err := json.Marshal(map[string]any{
		"correct": res.correct, "attempted": res.attempted, "failed": res.failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "# %s seed %d: %d timed passes\n", name, seed, res.passes)
	fmt.Println(string(line))
	if !res.correct {
		return errIncorrect
	}
	return nil
}

// childResult is the result line of one child run.
type childResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// child runs one workload in a fresh process of this program and parses
// its result line; the child's standard error passes through.
func child(name string, seed int64, seconds int, trace bool) (childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return childResult{}, err
	}
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(exe, "--workload", name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", t)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	var res childResult
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, fmt.Errorf("%s seed %d: no result line (%v)", name, seed, errors.Join(runErr, err))
	}
	return res, nil
}

// orchestrate runs every workload repeat times, each run in a fresh child
// process with seed, seed+1, ..., alternating the workload order between
// repetitions, and reports each metric: its value for one repetition, its
// spread for more.
func orchestrate(spec *benchSpec, seed int64, seconds int, trace bool, repeat int) error {
	samples := map[string]map[string][]float64{} // workload -> metric -> values
	bad := 0
	for k := 0; k < repeat; k++ {
		order := append([]workSpec(nil), spec.Workloads...)
		if k%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, w := range order {
			res, err := child(w.Name, seed+int64(k), seconds, trace)
			if err != nil {
				return err
			}
			if !res.Correct || res.Failed > 0 {
				bad++
			}
			if samples[w.Name] == nil {
				samples[w.Name] = map[string][]float64{}
			}
			for m, v := range res.Metrics {
				samples[w.Name][m] = append(samples[w.Name][m], v.Value)
			}
		}
	}
	report(os.Stdout, spec, samples, trace, repeat)
	if bad > 0 {
		return fmt.Errorf("%d runs failed their output checks: %w", bad, errIncorrect)
	}
	return nil
}

// spreadStat summarizes one metric of one workload over repeated runs.
type spreadStat struct {
	Values  []float64 `json:"values"`
	N       int       `json:"n"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	Spread  float64   `json:"spread"`
	TailPct float64   `json:"tail_pct,omitempty"`
	Tail    float64   `json:"tail,omitempty"`
	Wide    bool      `json:"wider_than_bound,omitempty"`
}

// report prints every metric of every workload: the value of a single run,
// or the median, quartiles, extremes, tail percentile and spread over
// repeated runs, flagging a spread wider than the metric's bound. The last
// line holds the same numbers as JSON.
func report(w io.Writer, spec *benchSpec, samples map[string]map[string][]float64, trace bool, repeat int) {
	bw := bufio.NewWriter(w)
	defer bw.Flush()
	out := map[string]map[string]spreadStat{}
	for _, ws := range spec.Workloads {
		out[ws.Name] = map[string]spreadStat{}
		fmt.Fprintf(bw, "%s\n", ws.Name)
		for _, m := range spec.metrics(trace) {
			xs := samples[ws.Name][m.Name]
			if len(xs) == 0 {
				continue
			}
			q1, q2, q3 := quartiles(xs)
			s := sorted(xs)
			st := spreadStat{Values: xs, N: len(xs), Median: q2, Q1: q1, Q3: q3, Min: s[0], Max: s[len(s)-1], Spread: spread(xs)}
			if p, v, ok := tail(xs, m.Better == "lower"); ok {
				st.TailPct, st.Tail = p, v
			}
			st.Wide = m.Bound != nil && st.Spread > *m.Bound
			out[ws.Name][m.Name] = st
			if repeat == 1 {
				fmt.Fprintf(bw, "  %-24s %14.6g %s\n", m.Name, q2, m.Unit)
				continue
			}
			flag := ""
			if st.Wide {
				flag = fmt.Sprintf("  SPREAD > bound %.3g", *m.Bound)
			}
			tailText := "-"
			if st.TailPct > 0 {
				tailText = fmt.Sprintf("p%g=%.6g", st.TailPct, st.Tail)
			}
			fmt.Fprintf(bw, "  %-24s n=%d median=%.6g q1=%.6g q3=%.6g min=%.6g max=%.6g %s spread=%.4f %s%s\n",
				m.Name, st.N, st.Median, st.Q1, st.Q3, st.Min, st.Max, tailText, st.Spread, m.Unit, flag)
		}
	}
	if err := json.NewEncoder(bw).Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "bench: summary:", err)
	}
}

// pinAll recomputes the pinned output digest of every workload for seeds
// 0..n-1 with one pass each, and the schedule quality of the sched-s9234
// pool, and rewrites bench/pins.json. A seed whose run fails any other
// check is an error: it would fail every timed run.
func pinAll(n int) error {
	pins := pinSet{Digests: map[string]map[string]string{}}
	for _, d := range workloads {
		pins.Digests[d.name] = map[string]string{}
		for s := int64(0); s < int64(n); s++ {
			r, err := newRun(d, s, false, nil)
			if err != nil {
				return err
			}
			res := execute(r, d.make(), 0, 1)
			if !res.correct {
				return fmt.Errorf("%s seed %d: %s", d.name, s, joinProblems(res.problems))
			}
			pins.Digests[d.name][fmt.Sprint(s)] = res.digest
			if d.name == "sched-s9234" {
				if pins.Schedules != nil && *pins.Schedules != res.quality {
					return fmt.Errorf("sched-s9234 seed %d: schedule quality %+v, seed 0 %+v", s, res.quality, *pins.Schedules)
				}
				pins.Schedules = &res.quality
			}
			fmt.Fprintf(os.Stderr, "# %s seed %d: %s\n", d.name, s, res.digest)
		}
	}
	data, err := json.MarshalIndent(pins, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join("bench", "pins.json"), append(data, '\n'), 0o644)
}
