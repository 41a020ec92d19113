package exper

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"fastmon/internal/schedule"
)

// withProcs raises GOMAXPROCS so worker clamping does not collapse the
// parallel paths to one goroutine on single-CPU test machines.
func withProcs(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// tinySuiteCfg shrinks the full 12-circuit paper suite far enough that the
// differential replay stays in test-suite time.
func tinySuiteCfg() SuiteConfig {
	return SuiteConfig{Scale: 0.02, MaxFaults: 200}
}

func schedulesEqual(a, b *schedule.Schedule) bool {
	if a.Method != b.Method || a.Covered != b.Covered || a.Coverable != b.Coverable ||
		a.FreqOptimal != b.FreqOptimal || a.CombosOptimal != b.CombosOptimal ||
		len(a.Periods) != len(b.Periods) {
		return false
	}
	for i := range a.Periods {
		pa, pb := a.Periods[i], b.Periods[i]
		if pa.Period != pb.Period || !reflect.DeepEqual(pa.Faults, pb.Faults) ||
			!reflect.DeepEqual(pa.Combos, pb.Combos) {
			return false
		}
	}
	return true
}

// TestSuiteSchedulesParallelMatchSerial is the tentpole differential: every
// circuit of the paper suite is replayed through the schedule stage with
// the serial solvers (Workers=1) and the parallel ones, and the resulting
// schedules must be bit-identical.
func TestSuiteSchedulesParallelMatchSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite differential replay")
	}
	withProcs(t, 8)
	cfg := tinySuiteCfg()
	specs, err := cfg.Select()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, spec := range specs {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			r, err := RunCircuit(ctx, spec, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, cov := range []float64{1.0, 0.9} {
				opt := r.Flow.ScheduleOptions(schedule.ILP, cov)
				// Budget expiries degrade to the incumbent at a
				// nondeterministic point of the search; the differential
				// guarantee only holds for completed solves, so give the
				// tiny instances effectively unlimited time.
				opt.SolverBudget = 5 * time.Minute
				opt.Workers = 1
				serial, err := schedule.Build(ctx, r.Flow.TargetData, opt)
				if err != nil {
					t.Fatalf("cov=%.2f serial: %v", cov, err)
				}
				if !serial.FreqOptimal {
					t.Fatalf("cov=%.2f: serial solve degraded despite test budget", cov)
				}
				for _, w := range []int{2, 8} {
					opt.Workers = w
					par, err := schedule.Build(ctx, r.Flow.TargetData, opt)
					if err != nil {
						t.Fatalf("cov=%.2f workers=%d: %v", cov, w, err)
					}
					if !schedulesEqual(serial, par) {
						t.Fatalf("cov=%.2f workers=%d: schedule diverged from serial\nserial: %+v\nparallel: %+v",
							cov, w, serial, par)
					}
				}
			}
		})
	}
}

// stripNondeterministic clears the fields of a CircuitResult that are
// expected to differ between runs (wall-clock timings, solver effort
// counters); everything else must replay identically.
func stripNondeterministic(res []*CircuitResult) []*CircuitResult {
	out := make([]*CircuitResult, len(res))
	for i, r := range res {
		c := *r
		c.Elapsed = 0
		c.Stages = nil
		c.Solver = nil
		out[i] = &c
	}
	return out
}

// TestSuiteParallelMatchesSerial runs the suite driver serially and with
// concurrent circuits; the ordered results (tables, Fig. 3 points,
// degradation rungs) must be identical and progress events must cover
// every circuit exactly once, each completion carrying the flow its
// result was derived from.
func TestSuiteParallelMatchesSerial(t *testing.T) {
	withProcs(t, 8)
	cfg := smallCfg()
	cfg.Names = []string{"s9234", "s13207", "s15850"}
	cfg.Scale = 0.03
	cfg.MaxFaults = 300
	req := TableRequest{T1: true, T3: true}
	ctx := context.Background()

	cfg.Workers = 1
	serial, err := RunSuite(ctx, cfg, req, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	cfg.Workers = 8
	var (
		mu        sync.Mutex
		completed []string
	)
	parallel, err := RunSuite(ctx, cfg, req, nil, func(ev SuiteEvent) {
		if ev.Res == nil {
			if ev.Run != nil {
				t.Errorf("start event of %s carries a flow", ev.Spec.Name)
			}
			return
		}
		if ev.Run == nil || ev.Run.Spec.Name != ev.Spec.Name || TableI(ev.Run) != *ev.Res.T1 {
			t.Errorf("completion event of %s does not carry the flow of its Table I row", ev.Spec.Name)
		}
		mu.Lock()
		completed = append(completed, fmt.Sprintf("%d:%s", ev.Index, ev.Spec.Name))
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(parallel) != len(cfg.Names) || len(completed) != len(cfg.Names) {
		t.Fatalf("parallel run: %d results, %d completion events, want %d",
			len(parallel), len(completed), len(cfg.Names))
	}
	for i, want := range cfg.Names {
		if parallel[i].Name != want {
			t.Fatalf("result %d = %s, want spec order %s", i, parallel[i].Name, want)
		}
	}
	if !reflect.DeepEqual(stripNondeterministic(serial), stripNondeterministic(parallel)) {
		t.Fatalf("parallel suite diverged from serial:\nserial: %+v\nparallel: %+v", serial, parallel)
	}
}
