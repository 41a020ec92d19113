package ilp

import (
	"context"

	"fastmon/internal/chaos"
	"fastmon/internal/fmerr"
	"fastmon/internal/obs"
)

// Chaos injection points of the solvers: an error-capable point at solve
// entry, and panic/delay-only disturbances (the dfs has no error return
// path) at node expansion and incumbent publication. An injected panic
// rides the existing worker recover → fr.Abort → re-panic path, so it
// exercises the same isolation machinery a real solver bug would.
var (
	ptSolve     = chaos.Register("ilp.solve", fmerr.StageSolve)
	ptNode      = chaos.Register("ilp.node", fmerr.StageSolve)
	ptIncumbent = chaos.Register("ilp.incumbent", fmerr.StageSolve)
)

// Options controls the solvers. The solver time budget is carried by the
// context: pass a context with a deadline to mirror the paper's 1-hour
// solver timeout. An expired deadline aborts the search and returns the
// best incumbent found so far (Optimal=false, Degradation=incumbent);
// outright cancellation additionally returns the context error so callers
// can distinguish "budget spent, result degraded" from "stop everything".
type Options struct {
	// Workers bounds the branch-and-bound worker pool; zero or negative
	// means one worker per CPU (par.ClampWorkers). Completed solves are
	// deterministic for every worker count: incumbents go through a
	// lexicographic tie-break and subtrees are pruned only when strictly
	// worse than the incumbent, so every interleaving returns the same
	// optimum. SetCover returns the same minimum cover for every worker
	// count, but not necessarily the lexicographically smallest one:
	// column-dominance presolve drops sets before the search. Budget
	// aborts return whichever incumbent was best at expiry and are the one
	// place worker count can show through.
	Workers int
}

// pollMask controls the cancellation poll granularity: the context is
// checked every pollMask+1 branch-and-bound nodes, so a cancelled solve
// returns within a small multiple of one node expansion.
const pollMask = 63

// stopReason classifies why a search stopped early.
type stopReason int

const (
	stopNone     stopReason = iota
	stopBudget              // deadline expired: degrade, no error
	stopCanceled            // context canceled: degrade and report the error
)

// checkCtx maps the context state to a stop reason. An expired deadline is
// the paper's soft solver timeout (return the incumbent, keep going with
// the flow); explicit cancellation must surface as an error.
func checkCtx(ctx context.Context) stopReason {
	switch ctx.Err() {
	case nil:
		return stopNone
	case context.Canceled:
		return stopCanceled
	default: // context.DeadlineExceeded
		return stopBudget
	}
}

// recordSolve rolls one exact solve's effort into the context observer:
// solver counters (nodes expanded, incumbent updates), the per-solve
// node histogram, and — for early-aborted solves — the degraded-solve
// counter and the bound gap at exit.
func recordSolve(ctx context.Context, nodes, incumbents int, optimal bool, gap float64) {
	o := obs.From(ctx)
	if o == nil {
		return
	}
	o.Counter("ilp.solves").Inc()
	o.Counter("ilp.nodes").Add(int64(nodes))
	o.Counter("ilp.incumbents").Add(int64(incumbents))
	o.Histogram("ilp.solve_nodes").Observe(int64(nodes))
	if !optimal {
		o.Counter("ilp.degraded").Inc()
		o.Gauge("ilp.last_gap").Set(gap)
	}
}
