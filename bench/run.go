package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// minPasses is the fewest timed passes a run makes, however long they take.
const minPasses = 1

// maxLayerExcess is how far the layers' self times of a traced run may sum
// above the timed calls they split, as a share of those calls, before the
// run fails: beyond it the replays no longer account for the calls. The
// check applies from minAttributed seconds of timed calls on; below that,
// timer resolution and collector pauses swamp the comparison.
const (
	maxLayerExcess = 0.05
	minAttributed  = 1.0
)

// workload is one benchmark scenario. setup is called params.SetupReps
// times before timing starts, and each call is timed as one set-up sample;
// pass is called until the run's time is used up. Both time only the
// library calls they make through run.call, never their output checks.
// Every pass of a run does the same work on the same inputs.
type workload interface {
	setup(r *run, rep int) error
	pass(r *run, i int) error
	close()
}

// quality is the schedule quality of the sched-s9234 pool: Σ |F| and
// Σ |S| over its ILP schedules (Table II plus the four Table III targets).
type quality struct {
	TestFreqs int `json:"test_freqs"`
	TestApps  int `json:"test_apps"`
}

// run is one run of one workload in this process.
type run struct {
	ctx      context.Context // carries no result cache; workloads add their own
	workload string
	seed     int64
	p        params
	root     string  // directory for the run's temporary result caches
	tr       *tracer // nil unless tracing
	phase    string  // setup, pass or check

	// The pins the run's outputs are checked against; nil skips a check.
	wantDigest  map[string]string // seed -> sha256 of the pinned output
	wantQuality *quality          // sched-s9234 only

	timed     time.Duration // timed calls of the current setup rep or pass
	attempted int
	failed    int
	problems  []string
	pinned    bytes.Buffer // output whose digest bench/pins.json pins
	hdf       float64      // HDFs detected by one pass
	quality   quality      // schedule quality of one pass (sched-s9234)
}

// result is what a run reports.
type result struct {
	correct   bool
	attempted int
	failed    int
	digest    string
	quality   quality
	passes    int
	endToEnd  map[string]float64
	perLayer  map[string]float64 // nil unless tracing
	tr        *tracer
	problems  []string
}

func (r *run) fail(msg string) {
	r.failed++
	r.problems = append(r.problems, msg)
}

// check counts one output check and records it as failed unless ok.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.fail(fmt.Sprintf(format, args...))
	}
}

// checking runs fn in the check phase: calls it makes are not timed.
func (r *run) checking(fn func()) {
	prev := r.phase
	r.phase = "check"
	fn()
	r.phase = prev
}

// detected records the HDFs pass i detected. Every pass runs the same
// inputs, so every pass must detect as many as the first.
func (r *run) detected(i int, hdf float64) {
	if i == 0 {
		r.hdf = hdf
		return
	}
	r.check(hdf == r.hdf, "pass %d detected %g HDFs, pass 0 %g", i, hdf, r.hdf)
}

// scheduled records the schedule quality of pass i, which must equal the
// first pass's, and checks the first against its pin: Σ |F| may exceed
// it by one frequency and Σ |S| by 2 %.
func (r *run) scheduled(i int, q quality) {
	if i > 0 {
		r.check(q == r.quality, "pass %d schedule quality %+v, pass 0 %+v", i, q, r.quality)
		return
	}
	r.quality = q
	if w := r.wantQuality; w != nil {
		r.check(q.TestFreqs <= w.TestFreqs+1, "Σ|F| of the ILP schedules is %d, pinned %d", q.TestFreqs, w.TestFreqs)
		r.check(float64(q.TestApps) <= 1.02*float64(w.TestApps), "Σ|S| of the ILP schedules is %d, pinned %d", q.TestApps, w.TestApps)
	}
}

// count adds to a per-layer counter of the traced passes.
func (r *run) count(name string, v float64) {
	if r.tr != nil && r.phase == "pass" {
		r.tr.counts[name] += v
	}
}

// countMax raises a per-layer counter of the traced passes to at least v.
func (r *run) countMax(name string, v float64) {
	if r.tr != nil && r.phase == "pass" {
		r.tr.counts[name] = max(r.tr.counts[name], v)
	}
}

// bookkeeping adds the time since t to the tracing overhead of passes.
func (r *run) bookkeeping(t time.Time) {
	if r.phase == "pass" {
		r.tr.overhead += time.Since(t)
	}
}

// call runs fn as one public library call. Outside the check phase its
// duration counts toward the current set-up repetition or pass. With
// tracing on it becomes a root span carrying the call's allocations; the
// returned id is -1 otherwise.
func (r *run) call(trace, name string, fn func() error) (int, time.Duration, error) {
	var before memSample
	if r.tr != nil {
		t := time.Now()
		before = r.tr.read()
		r.bookkeeping(t)
	}
	start := time.Now()
	err := fn()
	end := time.Now()
	d := end.Sub(start)
	if r.phase != "check" {
		r.timed += d
	}
	r.attempted++
	if err != nil {
		r.fail(fmt.Sprintf("%s %s: %v", trace, name, err))
	}
	id := -1
	if r.tr != nil {
		t := time.Now()
		after := r.tr.read()
		id = r.tr.record(span{
			Parent: -1, Trace: r.workload + "/" + trace, Name: name, Phase: r.phase,
			Start: r.tr.since(start), End: r.tr.since(end),
			Allocs: after.allocs - before.allocs, Bytes: after.bytes - before.bytes,
		})
		if r.phase == "pass" {
			r.tr.gcCPU += after.gcCPU - before.gcCPU
			r.tr.allCPU += after.allCPU - before.allCPU
			r.tr.allocMB += float64(after.bytes-before.bytes) / 1e6
		}
		r.bookkeeping(t)
	}
	return id, d, err
}

// begin starts a set-up repetition or a pass. It first collects the
// garbage earlier ones left, so that no repetition or pass pays for
// another's; in a traced pass it then times the calibration (calib.go).
func (r *run) begin(phase string) {
	runtime.GC()
	if r.tr != nil && phase == "pass" {
		r.tr.calib = append(r.tr.calib, calibrate().Seconds())
	}
	r.phase, r.timed = phase, 0
}

// replay re-runs, outside any timed window, a stage that the traced call
// parent ran internally, and records its duration and allocations as a
// replayed child span of parent.
func (r *run) replay(parent int, name string, fn func() error) error {
	before := r.tr.read()
	start := time.Now()
	err := fn()
	d := time.Since(start)
	after := r.tr.read()
	p := r.tr.spans[parent]
	r.tr.record(span{
		Parent: parent, Trace: p.Trace, Name: name, Phase: p.Phase,
		Start: p.Start, End: p.Start + d.Seconds(),
		Allocs: after.allocs - before.allocs, Bytes: after.bytes - before.bytes,
		Replayed: true,
	})
	r.attempted++
	if err != nil {
		r.fail(fmt.Sprintf("%s replay %s: %v", p.Trace, name, err))
	}
	return err
}

// tracing reports whether the current pass records spans.
func (r *run) tracing() bool { return r.tr != nil && r.phase == "pass" }

// execute sets the workload up, times passes for about seconds (at least
// minPasses, at most maxPasses when that is positive), and computes the
// run's metrics: the median set-up repetition and the median pass.
func execute(r *run, w workload, seconds float64, maxPasses int) result {
	defer w.close()
	var setups, passes []float64
	for rep := 0; rep < r.p.SetupReps && r.failed == 0; rep++ {
		r.begin("setup")
		if err := w.setup(r, rep); err != nil {
			break
		}
		setups = append(setups, r.timed.Seconds())
	}
	start := time.Now()
	var last time.Duration
	for i := 0; r.failed == 0; i++ {
		if maxPasses > 0 && i >= maxPasses {
			break
		}
		if i >= minPasses && (time.Since(start)+last).Seconds() > seconds {
			break
		}
		r.begin("pass")
		t := time.Now()
		if err := w.pass(r, i); err != nil {
			break
		}
		passes = append(passes, r.timed.Seconds())
		last = time.Since(t)
	}
	r.phase = "check"

	sum := sha256.Sum256(r.pinned.Bytes())
	res := result{digest: hex.EncodeToString(sum[:]), quality: r.quality, passes: len(passes), tr: r.tr}
	if r.wantDigest != nil && r.failed == 0 {
		if want, ok := r.wantDigest[fmt.Sprint(r.seed)]; ok {
			r.check(want == res.digest, "pinned output digest %s, want %s", res.digest, want)
		} else {
			fmt.Fprintf(os.Stderr, "# %s: no pinned digest for seed %d; output checked by invariants only\n", r.workload, r.seed)
		}
	}
	if r.tr != nil {
		res.perLayer = r.layerMetrics(res.passes)
		if _, roots, excess := r.tr.layers(); roots >= minAttributed {
			r.check(excess <= maxLayerExcess, "layer self times sum to %.1f%% more than the timed calls they split (limit %.0f%%)",
				100*excess, 100*maxLayerExcess)
		}
	}
	res.correct = r.failed == 0 && res.passes > 0
	res.attempted, res.failed, res.problems = r.attempted, r.failed, r.problems
	res.endToEnd = map[string]float64{
		"wall_s":       median(passes),
		"setup_s":      median(setups),
		"peak_rss_mb":  peakRSSMB(),
		"hdf_detected": r.hdf,
	}
	return res
}

// peakRSSMB returns the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// layerMetrics derives the per-layer metrics of the traced passes. Times
// and counts are per pass; shares are of the timed calls' total.
func (r *run) layerMetrics(passes int) map[string]float64 {
	t := r.tr
	ls, roots, excess := t.layers()
	n := float64(max(passes, 1))
	c := t.counts
	get := func(m string) layer {
		if l := ls[m]; l != nil {
			return *l
		}
		return layer{}
	}
	a, d, s := get("atpg"), get("detect"), get("schedule")
	return map[string]float64{
		"atpg.s":            a.self / n,
		"atpg.share":        frac(a.self, roots),
		"atpg.allocs":       a.allocs / n,
		"atpg.alloc_mb":     a.bytes / 1e6 / n,
		"atpg.patterns":     c["atpg.patterns"] / n,
		"atpg.backtracks":   c["atpg.backtracks"] / n,
		"atpg.aborted_frac": frac(c["atpg.aborted"], c["atpg.faults"]),
		"atpg.random_frac":  frac(c["atpg.random"], c["atpg.detected"]),

		"detect.s":           d.self / n,
		"detect.share":       frac(d.self, roots),
		"detect.allocs":      d.allocs / n,
		"detect.alloc_mb":    d.bytes / 1e6 / n,
		"detect.pairs":       c["detect.pairs"] / n,
		"detect.hit_frac":    frac(c["detect.hits"], c["detect.pairs"]),
		"detect.us_per_pair": frac(d.self*1e6, c["detect.pairs"]),

		"schedule.conv_s":     t.spanSum("schedule.conv", "pass") / n,
		"schedule.heur_s":     t.spanSum("schedule.heur", "pass") / n,
		"schedule.ilp_s":      t.spanSum("schedule.ilp", "pass") / n,
		"schedule.validate_s": t.spanSum("schedule.validate", "check") / n,
		"schedule.share":      frac(s.self, roots),
		"schedule.allocs":     s.allocs / n,
		"schedule.test_freqs": c["schedule.test_freqs"] / n,
		"schedule.test_apps":  c["schedule.test_apps"] / n,

		"ilp.solves":      c["ilp.solves"] / n,
		"ilp.nodes":       c["ilp.nodes"] / n,
		"ilp.nodes_per_s": frac(c["ilp.nodes"], c["ilp.s"]),
		"ilp.incumbents":  c["ilp.incumbents"] / n,
		"ilp.max_gap":     c["ilp.max_gap"],
		"ilp.budget_s":    c["ilp.budget_s"] / n,
		"ilp.exact_frac":  frac(c["ilp.exact"], c["ilp.schedules"]),

		"cache.open_s":         t.spanSum("cache.open", "pass") / n,
		"cache.hits":           c["cache.hits"] / n,
		"cache.misses":         c["cache.misses"] / n,
		"cache.puts":           c["cache.puts"] / n,
		"cache.hit_frac":       frac(c["cache.hits"], c["cache.hits"]+c["cache.misses"]),
		"cache.mb":             c["cache.mb"],
		"cache.flow_hit_s":     c["cache.flow_hit_s"] / n,
		"cache.schedule_hit_s": c["cache.schedule_hit_s"] / n,

		"core.flow_s":     t.spanSum("core.flow", "pass") / n,
		"core.self_s":     get("core").self / n,
		"circuit.build_s": get("circuit").self / n,
		"aging.point_s":   frac(t.spanSum("aging.sweep", "pass"), c["aging.points"]),

		"runtime.alloc_mb":    t.allocMB / n,
		"runtime.gc_cpu_frac": frac(t.gcCPU, t.allCPU),

		"bench.calib_s":          median(t.calib),
		"bench.trace_overhead_s": t.overhead.Seconds() / n,
		"bench.layer_excess":     excess,
	}
}

// joinProblems renders a run's failures for standard error.
func joinProblems(ps []string) string {
	if len(ps) > 10 {
		ps = append(ps[:10:10], fmt.Sprintf("... and %d more", len(ps)-10))
	}
	return strings.Join(ps, "\n#   ")
}
