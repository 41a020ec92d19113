package exper

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"fastmon/internal/fmerr"
)

// TestResumeSkipsCompletedCircuits is the resume scenario: a run over
// s9234 fills the result cache, then a run over s9234 and s13207 on the
// same cache reads every stage of the completed circuit back and computes
// only the new one.
func TestResumeSkipsCompletedCircuits(t *testing.T) {
	dir := t.TempDir()
	cfg := smallCfg()
	req := TableRequest{T1: true}

	firstCtx, first, _ := cacheCtx(t, dir)
	done, err := RunSuite(firstCtx, cfg, req, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	computed := first.Report().Misses

	cfg.Names = []string{"s9234", "s13207"}
	resCtx, resumed, _ := cacheCtx(t, dir)
	results, err := RunSuite(resCtx, cfg, req, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
	if r := resumed.Report(); r.Hits != computed || r.Misses != computed {
		t.Fatalf("resumed run: %d hits / %d misses, want the %d stages of s9234 read back and %d computed for s13207",
			r.Hits, r.Misses, computed, computed)
	}
	if *results[0].T1 != *done[0].T1 {
		t.Fatalf("resumed s9234 row differs:\n first:   %+v\n resumed: %+v", *done[0].T1, *results[0].T1)
	}
}

// TestResumeRecomputesOnBroaderRequest: a rerun that asks for more tables
// than the cached run reuses its ATPG and detection stages, builds the
// schedules it lacks, and renders the tables of a fresh run. The generous
// budget keeps both schedule builds exact, so they must agree.
func TestResumeRecomputesOnBroaderRequest(t *testing.T) {
	cfg := smallCfg()
	cfg.SolverBudget = time.Minute
	dir := t.TempDir()
	narrowCtx, _, _ := cacheCtx(t, dir)
	if _, err := RunSuite(narrowCtx, cfg, TableRequest{T1: true}, nil, nil); err != nil {
		t.Fatal(err)
	}

	broadCtx, _, o := cacheCtx(t, dir)
	broad := renderTables(broadCtx, t, cfg)
	if o.Counter("cache.hits.atpg").Value() != 1 || o.Counter("cache.hits.detect").Value() != 1 ||
		o.Counter("cache.hits.schedule").Value() != 0 || o.Counter("cache.misses.schedule").Value() == 0 {
		t.Fatalf("broader rerun: cache counters %v, want atpg+detect hits and only schedule misses",
			o.Metrics().Snapshot().Counters)
	}
	freshCtx, _, _ := cacheCtx(t, t.TempDir())
	if fresh := renderTables(freshCtx, t, cfg); !bytes.Equal(broad, fresh) {
		t.Fatalf("broader rerun differs from a fresh run\n--- rerun ---\n%s\n--- fresh ---\n%s", broad, fresh)
	}
}

func TestSuiteStopFinishesGracefully(t *testing.T) {
	stop := make(chan struct{})
	close(stop)
	results, err := RunSuite(context.Background(), smallCfg(),
		TableRequest{T1: true}, stop, nil)
	if err == nil {
		t.Fatal("stopped run returned nil error")
	}
	if fmerr.StageOf(err) != fmerr.StageExper {
		t.Fatalf("stage = %q", fmerr.StageOf(err))
	}
	if !strings.Contains(err.Error(), "partial") {
		t.Fatalf("error does not mark results partial: %v", err)
	}
	if len(results) != 0 {
		t.Fatalf("stop before first circuit still produced %d results", len(results))
	}
}

func TestSuiteCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunSuite(ctx, smallCfg(), TableRequest{T1: true}, nil, nil)
	if !fmerr.IsCanceled(err) {
		t.Fatalf("cancelled suite: %v", err)
	}
}

// TestComputeCircuitReportsTableIIIDegradation: a budget too small for
// any exact solve must show in the circuit's degradation rung when only
// Table III is requested, not just when Table II is.
func TestComputeCircuitReportsTableIIIDegradation(t *testing.T) {
	cfg := SuiteConfig{Scale: 0.05, MaxFaults: 600, Workers: 1, SolverBudget: time.Nanosecond}
	spec, _ := SpecByName("s9234")
	res, _, err := ComputeCircuit(context.Background(), spec, cfg, TableRequest{T3: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Degradation != fmerr.DegradeIncumbent.String() {
		t.Fatalf("T3-only degradation = %q (solver %+v), want %q",
			res.Degradation, res.Solver, fmerr.DegradeIncumbent)
	}
}
