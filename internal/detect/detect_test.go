package detect

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"fastmon/internal/atpg"
	"fastmon/internal/cell"
	"fastmon/internal/circuit"
	"fastmon/internal/fault"
	"fastmon/internal/fmerr"
	"fastmon/internal/interval"
	"fastmon/internal/monitor"
	"fastmon/internal/par"
	"fastmon/internal/sim"
	"fastmon/internal/sta"
)

// testbed builds a fully wired s27 environment.
func testbed(t *testing.T) (*sim.Engine, *monitor.Placement, Config, []fault.Fault, []sim.Pattern) {
	t.Helper()
	c := circuit.MustParseBench("s27", circuit.S27)
	lib := cell.NanGate45()
	a := cell.Annotate(c, lib)
	r := sta.Analyze(c, a)
	clk := r.NominalClock(0.05)
	placement := monitor.Place(r, 1.0, monitor.StandardDelays(clk)) // monitor all FFs
	e := sim.NewEngine(c, a)
	faults := fault.Universe(c)
	pats, _, err := atpg.Generate(context.Background(), c, faults, atpg.DefaultConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Clk:    clk,
		TMin:   clk / 3,
		Delta:  lib.FaultSize(),
		Glitch: lib.MinPulse(),
	}
	return e, placement, cfg, faults, pats
}

func TestRunBasicInvariants(t *testing.T) {
	e, placement, cfg, faults, pats := testbed(t)
	data, err := Run(context.Background(), e, placement, faults, pats, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != len(faults) {
		t.Fatalf("data for %d of %d faults", len(data), len(faults))
	}
	anyDetected := 0
	for fi := range data {
		fd := &data[fi]
		if fd.Fault != faults[fi] {
			t.Fatal("fault order changed")
		}
		prev := -1
		for _, pr := range fd.Per {
			if pr.Pattern <= prev {
				t.Fatal("pattern indices not ascending")
			}
			prev = pr.Pattern
			if pr.FF.Empty() && pr.SR.Empty() {
				t.Fatal("stored pattern with empty ranges")
			}
			// SR observes a subset of taps: SR ⊆ FF as sets of intervals
			// is not guaranteed interval-wise, but every SR point must be
			// an FF point (monitored taps are also normal FFs).
			if !pr.SR.Subtract(pr.FF).Empty() {
				t.Fatalf("SR range outside FF range: %v vs %v", pr.SR, pr.FF)
			}
			for _, s := range []interval.Set{pr.FF, pr.SR} {
				if !s.Empty() && (s.Min() < 0 || s.Max() > cfg.Clk+1) {
					t.Fatalf("range outside [0, clk]: %v", s)
				}
				for _, iv := range s.Intervals() {
					// Glitch filtering applies per tap before the union,
					// so union'd intervals can only grow.
					if iv.Len() < cfg.Glitch {
						t.Fatalf("glitch survived filtering: %v", iv)
					}
				}
			}
		}
		if len(fd.Per) > 0 {
			anyDetected++
		}
	}
	if anyDetected == 0 {
		t.Fatal("no fault has any detection data")
	}
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	e, placement, cfg, faults, pats := testbed(t)
	cfg1 := cfg
	cfg1.Workers = 1
	d1, err := Run(context.Background(), e, placement, faults, pats, cfg1)
	if err != nil {
		t.Fatal(err)
	}
	cfg8 := cfg
	cfg8.Workers = 8
	d8, err := Run(context.Background(), e, placement, faults, pats, cfg8)
	if err != nil {
		t.Fatal(err)
	}
	for fi := range d1 {
		if len(d1[fi].Per) != len(d8[fi].Per) {
			t.Fatalf("fault %d: %d vs %d pattern hits", fi, len(d1[fi].Per), len(d8[fi].Per))
		}
		for i := range d1[fi].Per {
			a, b := d1[fi].Per[i], d8[fi].Per[i]
			if a.Pattern != b.Pattern || !a.FF.Equal(b.FF) || !a.SR.Equal(b.SR) {
				t.Fatalf("fault %d pattern %d differs between worker counts", fi, a.Pattern)
			}
		}
	}
}

func TestRunNoMonitors(t *testing.T) {
	e, _, cfg, faults, pats := testbed(t)
	data, err := Run(context.Background(), e, nil, faults, pats, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for fi := range data {
		for _, pr := range data[fi].Per {
			if !pr.SR.Empty() {
				t.Fatal("SR range without monitors")
			}
		}
	}
}

// TestWorkerPanicIsolated proves the chaos hook: a worker panicking on one
// specific fault yields a typed error naming that fault instead of
// crashing the process. With two panicking faults, the error names the
// lower one at every worker count.
func TestWorkerPanicIsolated(t *testing.T) {
	e, placement, cfg, faults, pats := testbed(t)
	victim := faults[len(faults)/2]
	testHookPanic = func(f fault.Fault, pattern int) {
		if f == victim {
			panic("chaos: injected worker failure")
		}
	}
	defer func() { testHookPanic = nil }()

	cfg.Workers = 4
	data, err := Run(context.Background(), e, placement, faults, pats, cfg)
	if err == nil {
		t.Fatal("panicking worker did not fail the run")
	}
	if data != nil {
		t.Fatal("partial data returned alongside error")
	}
	var pe *fmerr.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error is not a PanicError: %v", err)
	}
	if pe.Stage != fmerr.StageDetect {
		t.Fatalf("stage = %q", pe.Stage)
	}
	want := victim.Injection(cfg.Delta).String()
	if !strings.Contains(pe.Item, want) {
		t.Fatalf("item %q does not name the offending fault %q", pe.Item, want)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("panic stack not captured")
	}

	// Two victims: the first fault that reaches a tap fails late, the
	// last one fails at once. The run must name the first at every worker
	// count, not whichever panic came first in time.
	var first, last fault.Fault
	found := false
	for _, f := range faults {
		if e.C.ReachesTap(f.Gate) {
			if !found {
				first, found = f, true
			}
			last = f
		}
	}
	if !found || first == last {
		t.Fatal("testbed needs two faults that reach a tap")
	}
	testHookPanic = func(f fault.Fault, pattern int) {
		switch f {
		case first:
			time.Sleep(50 * time.Millisecond)
			panic("chaos: injected late worker failure")
		case last:
			panic("chaos: injected early worker failure")
		}
	}
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	want = first.Injection(cfg.Delta).String()
	for _, workers := range []int{1, 2, 4} {
		cfg.Workers = workers
		for run := 0; run < 5; run++ {
			_, err := Run(context.Background(), e, placement, faults, pats, cfg)
			if !errors.As(err, &pe) {
				t.Fatalf("workers=%d run %d: error is not a PanicError: %v", workers, run, err)
			}
			if !strings.Contains(pe.Item, want) {
				t.Fatalf("workers=%d run %d: item %q does not name the first failing fault %q",
					workers, run, pe.Item, want)
			}
		}
	}
}

// TestRunCanceled proves prompt cancellation: a pre-cancelled context
// returns a stage-attributed context error without simulating anything.
func TestRunCanceled(t *testing.T) {
	e, placement, cfg, faults, pats := testbed(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := Run(ctx, e, placement, faults, pats, cfg)
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not wrap context.Canceled: %v", err)
	}
	if !fmerr.IsCanceled(err) {
		t.Fatalf("IsCanceled false for %v", err)
	}
	if fmerr.StageOf(err) == "" {
		t.Fatalf("no stage attribution: %v", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("cancelled run took %v", d)
	}
}

// TestWorkersClamped pins the Workers config to [1, GOMAXPROCS]: absurd
// values must neither deadlock nor change the result.
func TestWorkersClamped(t *testing.T) {
	maxp := runtime.GOMAXPROCS(0)
	cases := map[int]int{
		-7:       maxp,
		0:        maxp,
		1:        1,
		maxp:     maxp,
		maxp + 9: maxp,
		1 << 20:  maxp,
	}
	for in, want := range cases {
		if got := par.ClampWorkers(in); got != want {
			t.Errorf("par.ClampWorkers(%d) = %d, want %d", in, got, want)
		}
	}

	e, placement, cfg, faults, pats := testbed(t)
	ref, err := Run(context.Background(), e, placement, faults, pats, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{-7, 1 << 20} {
		cfg := cfg
		cfg.Workers = w
		done := make(chan struct{})
		var data []FaultData
		go func() {
			defer close(done)
			data, err = Run(context.Background(), e, placement, faults, pats, cfg)
		}()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("Workers=%d: run did not finish (deadlock?)", w)
		}
		if err != nil {
			t.Fatalf("Workers=%d: %v", w, err)
		}
		if len(data) != len(ref) {
			t.Fatalf("Workers=%d changed the result size", w)
		}
		for i := range data {
			if len(data[i].Per) != len(ref[i].Per) {
				t.Fatalf("Workers=%d changed fault %d detections", w, i)
			}
		}
	}
}
