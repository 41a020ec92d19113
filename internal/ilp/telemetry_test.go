package ilp

import (
	"context"
	"errors"
	"testing"
	"time"

	"fastmon/internal/bitset"
	"fastmon/internal/obs"
	"fastmon/internal/obs/flight"
)

// TestSolveTelemetry pins what one solve records, for both solvers and
// every way a solve ends: one ilp.solves, ilp.nodes and ilp.incumbents
// equal to the result's counts, the degraded counter and the exit gap
// only after an abort, the pool stats only when a search ran, and one
// incumbent flight event, named after the solver, per counted incumbent.
func TestSolveTelemetry(t *testing.T) {
	withProcs(t, 2)
	exactSets, exactUniv := hardCoverInstance(101, 60, 24, 0.18)
	presolved := []*bitset.Set{mkset(4, 0, 1), mkset(4, 2, 3), mkset(4, 0)}
	coverSets, coverUniv := hardCoverInstance(11, 400, 80, 0.08)
	partSets, partUniv := hardCoverInstance(17, 300, 60, 0.1)

	expired := func(ctx context.Context) context.Context {
		ctx, cancel := context.WithDeadline(ctx, time.Now().Add(-time.Second))
		t.Cleanup(cancel)
		return ctx
	}
	tripping := func(err error) func(context.Context) context.Context {
		return func(ctx context.Context) context.Context {
			return &trippingCtx{Context: ctx, after: 2, err: err}
		}
	}
	type solver struct {
		name  string // flight-event name of an incumbent
		solve func(ctx context.Context, sets []*bitset.Set, universe *bitset.Set, w int) (CoverResult, error)
	}
	setCover := solver{"ilp.cover", func(ctx context.Context, sets []*bitset.Set, universe *bitset.Set, w int) (CoverResult, error) {
		return SetCover(ctx, sets, universe, Options{Workers: w})
	}}
	partial := solver{"ilp.partial", func(ctx context.Context, sets []*bitset.Set, universe *bitset.Set, w int) (CoverResult, error) {
		return PartialCover(ctx, sets, universe, universe.Count()*9/10, Options{Workers: w})
	}}
	cases := []struct {
		name     string
		solver   solver
		sets     []*bitset.Set
		universe *bitset.Set
		ctx      func(context.Context) context.Context
		search   bool // a search ran: the pool stats appear
		abort    bool // the solve stopped early: degraded and last_gap appear
		entry    bool // it stopped before the search, so the gap is 1
		canceled bool
	}{
		{name: "setcover/exact", solver: setCover, sets: exactSets, universe: exactUniv, search: true},
		{name: "setcover/presolve", solver: setCover, sets: presolved, universe: full(4)},
		{name: "setcover/entry", solver: setCover, sets: coverSets, universe: coverUniv, ctx: expired, abort: true, entry: true},
		{name: "setcover/budget", solver: setCover, sets: coverSets, universe: coverUniv, ctx: tripping(context.DeadlineExceeded), search: true, abort: true},
		{name: "setcover/cancel", solver: setCover, sets: coverSets, universe: coverUniv, ctx: tripping(context.Canceled), search: true, abort: true, canceled: true},
		{name: "partial/exact", solver: partial, sets: exactSets, universe: exactUniv, search: true},
		{name: "partial/entry", solver: partial, sets: partSets, universe: partUniv, ctx: expired, abort: true, entry: true},
		{name: "partial/budget", solver: partial, sets: partSets, universe: partUniv, ctx: tripping(context.DeadlineExceeded), search: true, abort: true},
		{name: "partial/cancel", solver: partial, sets: partSets, universe: partUniv, ctx: tripping(context.Canceled), search: true, abort: true, canceled: true},
	}
	for _, c := range cases {
		for _, w := range []int{1, 2} {
			o := obs.New(nil)
			rec := flight.New(1024)
			o.AttachFlight(rec)
			ctx := obs.With(context.Background(), o)
			if c.ctx != nil {
				ctx = c.ctx(ctx)
			}
			res, err := c.solver.solve(ctx, c.sets, c.universe, w)
			if c.canceled != errors.Is(err, context.Canceled) || (!c.canceled && err != nil) {
				t.Fatalf("%s workers=%d: err = %v", c.name, w, err)
			}
			if res.Optimal == c.abort {
				t.Fatalf("%s workers=%d: Optimal = %v", c.name, w, res.Optimal)
			}
			snap := o.Metrics().Snapshot()
			counters, gauges := snap.Counters, snap.Gauges
			if counters["ilp.solves"] != 1 {
				t.Errorf("%s workers=%d: ilp.solves = %d, want 1", c.name, w, counters["ilp.solves"])
			}
			if counters["ilp.nodes"] != int64(res.Nodes) || counters["ilp.incumbents"] != int64(res.Incumbents) {
				t.Errorf("%s workers=%d: ilp.nodes %d and ilp.incumbents %d, the result counts %d and %d",
					c.name, w, counters["ilp.nodes"], counters["ilp.incumbents"], res.Nodes, res.Incumbents)
			}
			degraded, hasDegraded := counters["ilp.degraded"]
			gap, hasGap := gauges["ilp.last_gap"]
			switch {
			case !c.abort && (hasDegraded || hasGap):
				t.Errorf("%s workers=%d: an exact solve recorded ilp.degraded or ilp.last_gap", c.name, w)
			case c.abort && (degraded != 1 || !hasGap || gap != res.Gap):
				t.Errorf("%s workers=%d: ilp.degraded %d and ilp.last_gap %v (recorded %v), want 1 and the result's gap %v",
					c.name, w, degraded, gap, hasGap, res.Gap)
			case c.entry && res.Gap != 1:
				t.Errorf("%s workers=%d: entry abort gap %v, want 1", c.name, w, res.Gap)
			}
			_, hasWorkers := gauges["ilp.workers"]
			_, hasStolen := counters["ilp.nodes_stolen"]
			if hasWorkers != c.search || hasStolen != c.search {
				t.Errorf("%s workers=%d: ilp.workers recorded %v and ilp.nodes_stolen %v, want both %v",
					c.name, w, hasWorkers, hasStolen, c.search)
			}
			seen := map[int64]bool{}
			for _, ev := range rec.Snapshot() {
				if ev.Kind != flight.KindIncumbent {
					continue
				}
				if ev.Name != c.solver.name || ev.Value < 1 || ev.Value > int64(res.Incumbents) || seen[ev.Value] {
					t.Errorf("%s workers=%d: incumbent event %q numbered %d of %d", c.name, w, ev.Name, ev.Value, res.Incumbents)
				}
				seen[ev.Value] = true
			}
			if len(seen) != res.Incumbents {
				t.Errorf("%s workers=%d: %d incumbent events, the result counts %d", c.name, w, len(seen), res.Incumbents)
			}
		}
	}
}
