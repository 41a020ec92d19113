package ilp

import (
	"context"
	"math"
	"strconv"
	"sync/atomic"

	"fastmon/internal/chaos"
	"fastmon/internal/fmerr"
	"fastmon/internal/obs"
	"fastmon/internal/obs/flight"
	"fastmon/internal/par"
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
	// MaxNodes bounds the branch-and-bound tree (0 = unlimited).
	MaxNodes int
	// Workers bounds the branch-and-bound worker pool; zero or negative
	// means one worker per CPU (par.ClampWorkers). Completed solves are
	// deterministic for every worker count: incumbents go through a
	// lexicographic tie-break and subtrees are pruned only when strictly
	// worse than the incumbent, so every interleaving returns the same
	// optimum. SetCover returns the same minimum cover for every worker
	// count, but not necessarily the lexicographically smallest one:
	// column-dominance presolve drops sets before the search. Budget- or
	// node-capped aborts return whichever incumbent was best at expiry and
	// are the one place worker count can show through.
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
	stopBudget              // deadline expired or node cap hit: degrade, no error
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

// Solution is the result of a solve.
type Solution struct {
	X       []bool
	Value   float64
	Optimal bool // proven optimal
	Nodes   int  // branch-and-bound nodes expanded
	Found   bool // a feasible solution exists in X
	// Incumbents counts incumbent improvements during the search.
	Incumbents int
	// Gap is the relative bound gap at exit, (Value - rootBound)/Value:
	// zero when optimality was proven, the residual uncertainty after a
	// budget abort otherwise.
	Gap float64
	// Degradation reports the result-quality rung: exact when optimality
	// was proven, incumbent after a budget abort.
	Degradation fmerr.Degradation
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

// solveTask is one subproblem of the generic search: a partial 0-1
// assignment (own copy per task) and the objective cost fixed so far.
type solveTask struct {
	fixed []int8
	cost  float64
}

// Solve runs branch-and-bound on a generic 0-1 model over a work-sharing
// frontier (see par.Frontier): each worker expands subproblems
// depth-first, offloading sibling subtrees when the pool runs hungry. The
// LP relaxation (when the instance fits the dense simplex) provides
// bounds and the branching variable; otherwise the search degrades to
// plain DFS with cost-based pruning. Intended for the moderate-size
// models the scheduler produces per frequency; the covering fast path
// lives in SetCover.
//
// The context is polled every few nodes: an expired deadline returns the
// best incumbent with a nil error, cancellation returns the incumbent
// found so far together with a stage-attributed error wrapping
// context.Canceled.
func Solve(ctx context.Context, m *Model, opts Options) (Solution, error) {
	if err := m.Validate(); err != nil {
		return Solution{Value: math.Inf(1)}, fmerr.Wrap(fmerr.StageSolve, "model", err)
	}
	if err := chaos.Point(ctx, ptSolve); err != nil {
		return Solution{Value: math.Inf(1)}, fmerr.Wrap(fmerr.StageSolve, "solve", err)
	}
	// Entry check: the generic solver has no cheap incumbent to fall back
	// on, so a spent context yields an empty degraded solution.
	if s := checkCtx(ctx); s != stopNone {
		sol := Solution{Value: math.Inf(1), Gap: 1, Degradation: fmerr.DegradeIncumbent}
		recordSolve(ctx, 0, 0, false, 1)
		if s == stopCanceled {
			return sol, fmerr.Wrap(fmerr.StageSolve, "solve", ctx.Err())
		}
		return sol, nil
	}
	n := m.NumVars()
	workers := par.ClampWorkers(opts.Workers)
	// frec journals incumbent publications (nil-safe no-op when the run
	// carries no flight recorder).
	frec := obs.From(ctx).Flight()
	best := newBestSol()
	var (
		nodes, incumbents, stolen atomic.Int64
		stop                      stopFlag
	)
	rootBound := math.Inf(-1) // written only while expanding node 1

	fr := par.NewFrontier[solveTask](workers)
	root := make([]int8, n)
	for i := range root {
		root[i] = -1
	}
	fr.Push(0, solveTask{fixed: root})

	par.Run(workers, func(id int) {
		defer func() {
			// A worker dying mid-search must not strand its peers in Pop.
			if r := recover(); r != nil {
				fr.Abort()
				panic(r)
			}
		}()
		var rec func(fixed []int8, cost float64)
		// branch expands both children of variable i. The serial order
		// tries 1 before 0 (covering problems benefit from optimistic
		// inclusion); under a hungry pool the 0-subtree is offloaded and
		// the 1-subtree recursed locally, preserving that order.
		branch := func(fixed []int8, i int, cost float64) {
			if workers > 1 && fr.Hungry() {
				off := append([]int8(nil), fixed...)
				off[i] = 0
				fr.Push(id, solveTask{fixed: off, cost: cost})
				fixed[i] = 1
				rec(fixed, cost+m.Obj[i])
				fixed[i] = -1
				return
			}
			for _, v := range []int8{1, 0} {
				fixed[i] = v
				rec(fixed, cost+float64(v)*m.Obj[i])
				fixed[i] = -1
			}
		}
		rec = func(fixed []int8, cost float64) {
			if stop.get() != stopNone {
				return
			}
			nn := nodes.Add(1)
			if opts.MaxNodes > 0 && nn > int64(opts.MaxNodes) {
				stop.set(stopBudget)
				fr.Abort()
				return
			}
			if nn&pollMask == 0 {
				if s := checkCtx(ctx); s != stopNone {
					stop.set(s)
					fr.Abort()
					return
				}
				chaos.Disturb(ctx, ptNode)
			}
			if cost > best.val()+eps {
				return
			}
			lpVal, lpX, status := SolveLP(m, fixed)
			switch status {
			case LPInfeasible:
				return
			case LPOptimal:
				if nn == 1 {
					rootBound = lpVal // root relaxation: global lower bound
				}
				if lpVal > best.val()+eps {
					return
				}
				frac, fracAmt := -1, 0.0
				for i := 0; i < n; i++ {
					if fixed[i] >= 0 {
						continue
					}
					f := math.Abs(lpX[i] - math.Round(lpX[i]))
					if f > fracAmt {
						frac, fracAmt = i, f
					}
				}
				if frac < 0 || fracAmt < 1e-7 {
					// Integral LP solution: accept directly.
					x := make([]bool, n)
					for i := 0; i < n; i++ {
						if fixed[i] == 1 || (fixed[i] < 0 && lpX[i] > 0.5) {
							x[i] = true
						}
					}
					if m.Feasible(x) {
						chaos.Disturb(ctx, ptIncumbent)
						if v := m.Value(x); best.offer(x, v) {
							frec.Record(flight.Event{Kind: flight.KindIncumbent, Name: "ilp.solve", Stage: "solve",
								Detail: strconv.FormatFloat(v, 'g', -1, 64), Value: incumbents.Add(1)})
						}
						return
					}
					// Rounding broke feasibility (degenerate): fall through
					// to branching on the first free variable.
					frac = firstFree(fixed)
					if frac < 0 {
						return
					}
				}
				branch(fixed, frac, cost)
			case LPTooLarge:
				// No relaxation available: plain DFS.
				i := firstFree(fixed)
				if i < 0 {
					x := make([]bool, n)
					for j := range x {
						x[j] = fixed[j] == 1
					}
					if m.Feasible(x) {
						chaos.Disturb(ctx, ptIncumbent)
						if v := m.Value(x); best.offer(x, v) {
							frec.Record(flight.Event{Kind: flight.KindIncumbent, Name: "ilp.solve", Stage: "solve",
								Detail: strconv.FormatFloat(v, 'g', -1, 64), Value: incumbents.Add(1)})
						}
					}
					return
				}
				branch(fixed, i, cost)
			}
		}
		for {
			t, st, ok := fr.Pop(id)
			if !ok {
				return
			}
			if st {
				stolen.Add(1)
			}
			rec(t.fixed, t.cost)
		}
	})

	stopped := stop.get()
	sol := Solution{Nodes: int(nodes.Load()), Incumbents: int(incumbents.Load())}
	best.mu.Lock()
	sol.Found = best.found
	if best.found {
		sol.X = append([]bool(nil), best.x...)
		sol.Value = best.val()
	} else {
		sol.Value = math.Inf(1)
	}
	best.mu.Unlock()
	sol.Optimal = sol.Found && stopped == stopNone
	if stopped != stopNone {
		sol.Degradation = fmerr.DegradeIncumbent
	}
	if !sol.Optimal && sol.Found {
		switch {
		case math.IsInf(rootBound, -1) || sol.Value <= 0:
			sol.Gap = 1 // no usable bound: fully unresolved
		default:
			sol.Gap = (sol.Value - rootBound) / sol.Value
			if sol.Gap < 0 {
				sol.Gap = 0
			}
		}
	}
	recordSolve(ctx, sol.Nodes, sol.Incumbents, sol.Optimal, sol.Gap)
	recordPool(ctx, workers, stolen.Load())
	if stopped == stopCanceled {
		return sol, fmerr.Wrap(fmerr.StageSolve, "solve", ctx.Err())
	}
	return sol, nil
}

func firstFree(fixed []int8) int {
	for i, f := range fixed {
		if f < 0 {
			return i
		}
	}
	return -1
}
