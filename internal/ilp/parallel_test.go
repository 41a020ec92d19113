package ilp

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync/atomic"
	"testing"

	"fastmon/internal/bitset"
	"fastmon/internal/fmerr"
)

// withProcs raises GOMAXPROCS for the duration of a test so ClampWorkers
// does not collapse multi-worker requests to 1 on single-CPU runners —
// the parallel engine must be exercised for real even there.
func withProcs(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// trippingCtx reports a healthy context for the first `after` Err calls
// and the configured error afterwards. It makes "budget expires / flow is
// cancelled mid-search" deterministic: the entry check passes, the first
// in-search poll trips.
type trippingCtx struct {
	context.Context
	calls atomic.Int64
	after int64
	err   error
}

func (c *trippingCtx) Err() error {
	if c.calls.Add(1) > c.after {
		return c.err
	}
	return nil
}

func coverEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSetCoverParallelMatchesSerial is the ilp half of the differential
// suite: across random instances, every worker count must return the
// bit-identical Selected slice — the same minimum cover, though not
// necessarily the lexicographically smallest one.
func TestSetCoverParallelMatchesSerial(t *testing.T) {
	withProcs(t, 8)
	for trial := int64(0); trial < 12; trial++ {
		sets, universe := hardCoverInstance(trial+100, 60, 24, 0.18)
		if !Coverable(sets, universe) || universe.Count() == 0 {
			continue
		}
		ref, err := SetCover(context.Background(), sets, universe, Options{Workers: 1})
		if err != nil || !ref.Optimal {
			t.Fatalf("trial %d: serial solve failed: %+v %v", trial, ref, err)
		}
		for _, w := range []int{2, 4, 8} {
			res, err := SetCover(context.Background(), sets, universe, Options{Workers: w})
			if err != nil || !res.Optimal {
				t.Fatalf("trial %d workers=%d: %+v %v", trial, w, res, err)
			}
			if !coverEqual(res.Selected, ref.Selected) {
				t.Fatalf("trial %d workers=%d: Selected %v != serial %v",
					trial, w, res.Selected, ref.Selected)
			}
		}
	}
}

func TestPartialCoverParallelMatchesSerial(t *testing.T) {
	withProcs(t, 8)
	for trial := int64(0); trial < 10; trial++ {
		sets, universe := hardCoverInstance(trial+300, 50, 20, 0.2)
		maxCov := universe.Count()
		if maxCov == 0 {
			continue
		}
		quota := maxCov * 7 / 10
		if quota == 0 {
			quota = 1
		}
		ref, err := PartialCover(context.Background(), sets, universe, quota, Options{Workers: 1})
		if err != nil || !ref.Optimal {
			t.Fatalf("trial %d: serial solve failed: %+v %v", trial, ref, err)
		}
		for _, w := range []int{2, 4, 8} {
			res, err := PartialCover(context.Background(), sets, universe, quota, Options{Workers: w})
			if err != nil || !res.Optimal {
				t.Fatalf("trial %d workers=%d: %+v %v", trial, w, res, err)
			}
			if !coverEqual(res.Selected, ref.Selected) {
				t.Fatalf("trial %d workers=%d: Selected %v != serial %v",
					trial, w, res.Selected, ref.Selected)
			}
		}
	}
}

// TestSetCoverBudgetExpiryMidSearch walks the degradation ladder under
// both engines: the budget trips at the first in-search poll, the solve
// must return a feasible incumbent flagged DegradeIncumbent with a sane
// gap and no error (deadline = soft budget).
func TestSetCoverBudgetExpiryMidSearch(t *testing.T) {
	withProcs(t, 4)
	sets, universe := hardCoverInstance(11, 400, 80, 0.08)
	for _, w := range []int{1, 4} {
		ctx := &trippingCtx{Context: context.Background(), after: 2, err: context.DeadlineExceeded}
		res, err := SetCover(ctx, sets, universe, Options{Workers: w})
		if err != nil {
			t.Fatalf("workers=%d: budget expiry must not error: %v", w, err)
		}
		if res.Optimal || res.Degradation != fmerr.DegradeIncumbent {
			t.Fatalf("workers=%d: expected incumbent rung, got %+v", w, res)
		}
		if res.Gap < 0 || res.Gap > 1 {
			t.Fatalf("workers=%d: gap %f out of range", w, res.Gap)
		}
		u := universe.Clone()
		for _, j := range res.Selected {
			u.AndNot(sets[j])
		}
		if !u.Empty() {
			t.Fatalf("workers=%d: budget incumbent does not cover", w)
		}
	}
}

// TestAbortNeverWorseThanHeuristic trips the budget of both solvers on
// instances whose greedy cover holds a redundant set, at entry and at the
// first in-search poll. The heuristic answer is greedy less the sets the
// schedule's fault dropping skips; an aborted solve must never return more
// sets than that, and its Gap must be computed from the cover it returns.
func TestAbortNeverWorseThanHeuristic(t *testing.T) {
	withProcs(t, 2)
	// Greedy takes 0, 1, 2, 3 (gains 6, 4, 1, 1); 1 adds nothing once the
	// larger 2 and 3 are kept, and {2, 3} is the optimum.
	gadget := []*bitset.Set{
		mkset(12, 0, 1, 2, 3, 4, 5),
		mkset(12, 6, 7, 8, 9),
		mkset(12, 0, 1, 2, 6, 7, 10),
		mkset(12, 3, 4, 5, 8, 9, 11),
	}
	hardSets, hardUniv := hardCoverInstance(74, 80, 30, 0.12)
	partSets, partUniv := hardCoverInstance(172, 80, 30, 0.12)
	cases := []struct {
		name        string
		sets        []*bitset.Set
		universe    *bitset.Set
		quota       int // 0: full cover
		after       int64
		greedy, max int
	}{
		{"setcover/entry", gadget, full(12), 0, 0, 4, 3},
		{"setcover/mid-search", hardSets, hardUniv, 0, 2, 17, 16},
		{"partial/entry", gadget, full(12), 12, 0, 4, 3},
		{"partial/mid-search", partSets, partUniv, partUniv.Count() * 9 / 10, 2, 10, 9},
	}
	for _, c := range cases {
		quota := c.quota
		if quota == 0 {
			quota = c.universe.Count()
		}
		g, err := GreedyPartialCover(c.sets, c.universe, quota)
		if err != nil || len(g) != c.greedy {
			t.Fatalf("%s: greedy %v (%v), want %d sets", c.name, g, err, c.greedy)
		}
		for _, w := range []int{1, 2} {
			ctx := &trippingCtx{Context: context.Background(), after: c.after, err: context.DeadlineExceeded}
			var res CoverResult
			if c.quota == 0 {
				res, err = SetCover(ctx, c.sets, c.universe, Options{Workers: w})
			} else {
				res, err = PartialCover(ctx, c.sets, c.universe, quota, Options{Workers: w})
			}
			if err != nil || res.Optimal || res.Degradation != fmerr.DegradeIncumbent {
				t.Fatalf("%s workers=%d: want a budget-aborted solve, got %+v %v", c.name, w, res, err)
			}
			if len(res.Selected) > c.max {
				t.Errorf("%s workers=%d: %d sets, the heuristic's answer has %d", c.name, w, len(res.Selected), c.max)
			}
			cov := bitset.New(c.universe.Len())
			for _, j := range res.Selected {
				cov.Or(c.sets[j])
			}
			if cov.IntersectionCount(c.universe) < quota {
				t.Errorf("%s workers=%d: %v misses the quota", c.name, w, res.Selected)
			}
			// Gap = (n - rootBound)/n with an integer bound in [0, n).
			n := float64(len(res.Selected))
			if lb := n * (1 - res.Gap); res.Gap <= 0 || res.Gap > 1 || math.Abs(lb-math.Round(lb)) > 1e-9 {
				t.Errorf("%s workers=%d: gap %v is not computed from %d sets", c.name, w, res.Gap, len(res.Selected))
			}
		}
	}
}

func TestSetCoverCanceledMidSearchParallel(t *testing.T) {
	withProcs(t, 4)
	sets, universe := hardCoverInstance(13, 400, 80, 0.08)
	for _, w := range []int{1, 4} {
		ctx := &trippingCtx{Context: context.Background(), after: 2, err: context.Canceled}
		res, err := SetCover(ctx, sets, universe, Options{Workers: w})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled in chain", w, err)
		}
		if !fmerr.IsCanceled(err) || fmerr.StageOf(err) != fmerr.StageSolve {
			t.Fatalf("workers=%d: cancellation not stage-attributed: %v", w, err)
		}
		if res.Optimal || res.Degradation != fmerr.DegradeIncumbent {
			t.Fatalf("workers=%d: cancelled solve must degrade: %+v", w, res)
		}
		u := universe.Clone()
		for _, j := range res.Selected {
			u.AndNot(sets[j])
		}
		if !u.Empty() {
			t.Fatalf("workers=%d: cancelled incumbent does not cover", w)
		}
	}
}

func TestPartialCoverBudgetAndCancelParallel(t *testing.T) {
	withProcs(t, 4)
	sets, universe := hardCoverInstance(17, 300, 60, 0.1)
	quota := universe.Count() * 9 / 10
	for _, w := range []int{1, 4} {
		// Budget rung.
		bctx := &trippingCtx{Context: context.Background(), after: 2, err: context.DeadlineExceeded}
		res, err := PartialCover(bctx, sets, universe, quota, Options{Workers: w})
		if err != nil {
			t.Fatalf("workers=%d: budget expiry must not error: %v", w, err)
		}
		if res.Optimal || res.Degradation != fmerr.DegradeIncumbent || res.Gap < 0 || res.Gap > 1 {
			t.Fatalf("workers=%d: expected incumbent rung, got %+v", w, res)
		}
		cov := bitset.New(universe.Len())
		for _, j := range res.Selected {
			cov.Or(sets[j])
		}
		if cov.IntersectionCount(universe) < quota {
			t.Fatalf("workers=%d: budget incumbent misses quota", w)
		}
		// Cancellation rung.
		cctx := &trippingCtx{Context: context.Background(), after: 2, err: context.Canceled}
		res, err = PartialCover(cctx, sets, universe, quota, Options{Workers: w})
		if !fmerr.IsCanceled(err) || fmerr.StageOf(err) != fmerr.StageSolve {
			t.Fatalf("workers=%d: cancellation not stage-attributed: %v", w, err)
		}
		if res.Optimal || res.Degradation != fmerr.DegradeIncumbent {
			t.Fatalf("workers=%d: cancelled solve must degrade: %+v", w, res)
		}
	}
}
