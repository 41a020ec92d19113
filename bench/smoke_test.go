package main

import (
	"context"
	"math"
	"reflect"
	"testing"
	"time"

	"fastmon/internal/exper"
)

// smallRun prepares a run of workload d shrunk to the embedded ISCAS
// reference circuits, so that its whole code path runs in well under a
// second.
func smallRun(t *testing.T, d def, seed int64, trace bool) *run {
	t.Helper()
	p := d.params
	p.Circuits = []string{"s27"}
	if d.name == "cold-iscas" {
		p.Circuits = []string{"s27", "c17"}
	}
	p.SetupReps = 2
	if p.Instances != nil {
		p.Instances = p.Instances[:2]
	}
	if p.Years != nil {
		p.Years = []float64{0, 10}
	}
	r := &run{ctx: context.Background(), workload: d.name, seed: seed, p: p, root: t.TempDir()}
	if trace {
		r.tr = newTracer()
		r.p.Workers = 1
	}
	return r
}

func nameSet(ms []metricSpec) map[string]bool {
	out := map[string]bool{}
	for _, m := range ms {
		out[m.Name] = true
	}
	return out
}

func keys(m map[string]float64) map[string]bool {
	out := map[string]bool{}
	for k := range m {
		out[k] = true
	}
	return out
}

// TestSmokeEveryWorkload runs every workload's set-up, passes and output
// checks, untraced and traced, and checks that a run computes exactly
// the metrics BENCHMARK.json lists.
func TestSmokeEveryWorkload(t *testing.T) {
	spec := loadRepoSpec(t)
	for _, d := range workloads {
		for _, trace := range []bool{false, true} {
			res := execute(smallRun(t, d, 3, trace), d.make(), 60, 2)
			if !res.correct || res.passes != 2 {
				t.Fatalf("%s (trace %v): correct %v after %d passes: %v", d.name, trace, res.correct, res.passes, res.problems)
			}
			want := spec.metrics(false)
			got := res.endToEnd
			if trace {
				want, got = spec.metrics(true), res.perLayer
			}
			if !reflect.DeepEqual(keys(got), nameSet(want)) {
				t.Errorf("%s (trace %v): computed %v, BENCHMARK.json lists %v", d.name, trace, keys(got), nameSet(want))
			}
			if res.endToEnd["wall_s"] <= 0 || res.endToEnd["setup_s"] <= 0 || res.endToEnd["peak_rss_mb"] <= 0 {
				t.Errorf("%s: end-to-end metrics must be positive: %v", d.name, res.endToEnd)
			}
			if trace {
				ls, roots, excess := res.tr.layers()
				sum := 0.0
				for _, l := range ls {
					sum += l.self
				}
				if roots <= 0 || math.Abs(sum-(1+excess)*roots) > 1e-9*roots {
					t.Errorf("%s: layer self times sum to %g s, timed calls to %g s, excess %g", d.name, sum, roots, excess)
				}
			}
		}
	}
}

// TestDigestDependsOnSeedOnly checks that the pinned output is a function
// of the seed: two runs with one seed agree, and a run whose digest does
// not match its pin fails.
func TestDigestDependsOnSeedOnly(t *testing.T) {
	d, _ := lookup("cold-iscas")
	a := execute(smallRun(t, d, 5, false), d.make(), 0, 1)
	b := execute(smallRun(t, d, 5, false), d.make(), 0, 1)
	if a.digest != b.digest {
		t.Fatalf("seed 5 gave digests %s and %s", a.digest, b.digest)
	}
	r := smallRun(t, d, 5, false)
	r.wantDigest = map[string]string{"5": "0"}
	if bad := execute(r, d.make(), 0, 1); bad.correct {
		t.Fatal("a run whose digest differs from its pin passed")
	}
}

// TestScheduleQualityPin checks that a sched-s9234 run fails when its
// schedules need more than one extra test frequency or 2 % more test
// applications than pinned, and passes within those limits.
func TestScheduleQualityPin(t *testing.T) {
	d, _ := lookup("sched-s9234")
	got := execute(smallRun(t, d, 1, false), d.make(), 0, 1)
	q := got.quality
	if !got.correct || q.TestFreqs == 0 {
		t.Fatalf("unpinned run: correct %v, quality %+v: %v", got.correct, q, got.problems)
	}
	for _, c := range []struct {
		pin quality
		ok  bool
	}{
		{q, true},
		{quality{q.TestFreqs - 1, q.TestApps}, true},
		{quality{q.TestFreqs - 2, q.TestApps}, false},
		{quality{q.TestFreqs, q.TestApps * 9 / 10}, false},
	} {
		r := smallRun(t, d, 1, false)
		r.wantQuality = &c.pin
		if res := execute(r, d.make(), 0, 1); res.correct != c.ok {
			t.Errorf("pin %+v against %+v: correct %v, want %v", c.pin, q, res.correct, c.ok)
		}
	}
}

// TestTablesMatchExper checks that the rows the benchmark derives from
// the schedules it builds equal exper.TableII's and exper.TableIII's on a
// flow whose exact solves all finish within their budget.
func TestTablesMatchExper(t *testing.T) {
	ctx := context.Background()
	spec, _ := exper.SpecByName("s27")
	res, err := exper.RunCircuit(ctx, spec, exper.SuiteConfig{Workers: 1, SolverBudget: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	r := &run{ctx: ctx, workload: "test", phase: "pass"}
	ts, err := r.tables(ctx, res)
	if err != nil {
		t.Fatal(err)
	}
	t2, _, err := exper.TableII(ctx, res)
	if err != nil {
		t.Fatal(err)
	}
	t3, _, err := exper.TableIII(ctx, res)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ts.t2, t2) {
		t.Errorf("Table II row %+v, exper %+v", ts.t2, t2)
	}
	if !reflect.DeepEqual(ts.t3, t3) {
		t.Errorf("Table III row %+v, exper %+v", ts.t3, t3)
	}
	r.validate(res, ts)
	if r.failed > 0 {
		t.Errorf("schedules failed validation: %v", r.problems)
	}
}
