package ilp

import (
	"context"
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

// driver is the branch-and-bound harness SetCover and PartialCover run in,
// over subproblems of type T. It owns what the two searches share: the
// ilp.solve chaos point and the entry check (start), the work-sharing
// frontier and its workers (run), per-worker node accounting with the
// context poll and incumbent publication (worker), and the exit (result):
// the abort fallback and gap, the telemetry and the cancellation error. A
// search keeps its preconditions, its root set-up and greedy seed, its
// depth-first expansion and its root bound. A driver lives on its search's
// stack, so a solve that ends before the search allocates nothing for it.
type driver[T any] struct {
	ctx     context.Context
	name    string // flight-event name of an incumbent
	op      string // error op
	workers int
	stop    stopReason // why the entry check or the search stopped the solve
	sh      *shared[T] // nil unless a search ran
}

// shared is the state a search's workers share.
type shared[T any] struct {
	ctx  context.Context
	name string
	// Resolved once: neither changes mid-solve, and a nil injector or
	// recorder is a valid no-op.
	inj  *chaos.Injector
	frec *flight.Recorder

	workers int
	best    *bestList
	fr      *par.Frontier[T]

	nodes, incumbents, stolen atomic.Int64
	stop                      stopFlag
}

// start opens a solve named by its flight event and error op: the
// ilp.solve chaos point, then the entry check. heuristic returns the
// heuristic's answer, greedy less its redundant sets (dropRedundant). With
// the budget already spent or the flow cancelled, that is the whole
// result, and done is true.
func start[T any](ctx context.Context, name, op string, opts Options,
	heuristic func() ([]int, error)) (d driver[T], done bool, res CoverResult, err error) {
	if err := chaos.Point(ctx, ptSolve); err != nil {
		return d, true, CoverResult{}, fmerr.Wrap(fmerr.StageSolve, op, err)
	}
	d = driver[T]{ctx: ctx, name: name, op: op, workers: par.ClampWorkers(opts.Workers)}
	if d.stop = checkCtx(ctx); d.stop != stopNone {
		sel, err := heuristic()
		if err != nil {
			return d, true, CoverResult{}, err
		}
		res, err := d.exit(CoverResult{Selected: sel, Gap: 1, Degradation: fmerr.DegradeIncumbent})
		return d, true, res, err
	}
	return d, false, CoverResult{}, nil
}

// run searches from root with the incumbent seeded by seed and its score
// (see bestList), and returns the best selection found. work is the body
// of one worker: it sets up the worker's scratch and expands subproblems
// through w.loop, so its depth-first closure and scratch stay on the
// worker's stack.
func (d *driver[T]) run(seed []int, score int, root T, work func(w worker[T])) []int {
	sh := &shared[T]{ctx: d.ctx, name: d.name, inj: chaos.From(d.ctx), frec: obs.From(d.ctx).Flight(),
		workers: d.workers, best: newBestList(seed, score), fr: par.NewFrontier[T](d.workers)}
	d.sh = sh
	sh.fr.Push(0, root)
	par.Run(sh.workers, func(id int) {
		defer func() {
			// A worker dying mid-search must not strand its peers in Pop.
			if r := recover(); r != nil {
				sh.fr.Abort()
				panic(r)
			}
		}()
		work(worker[T]{sh: sh, id: id})
	})
	d.stop = sh.stop.get()
	return sh.best.snapshot()
}

// worker is one search worker: its node tally, flushed into the shared
// count once per poll window, and whether it has seen the search stop (a
// plain bool, so every recursion level bails without an atomic read).
type worker[T any] struct {
	sh    *shared[T]
	id    int
	nodes int64
	dead  bool
}

// loop pops subproblems until the search is exhausted or aborted and
// expands each. It then flushes the tally's sub-window remainder, so node
// totals stay exact.
func (w *worker[T]) loop(expand func(T)) {
	for {
		t, stolen, ok := w.sh.fr.Pop(w.id)
		if !ok {
			break
		}
		if stolen {
			w.sh.stolen.Add(1)
		}
		expand(t)
	}
	w.sh.nodes.Add(w.nodes & pollMask)
}

// node counts one node and reports whether the search goes on.
func (w *worker[T]) node() bool {
	if w.dead {
		return false
	}
	w.nodes++
	return w.nodes&pollMask != 0 || w.poll()
}

// poll is the once-per-window slow path of node: flush the tally, notice
// a peer's abort, poll the context. Stop reasons only arise on abort paths
// (cancellation, budget), so checking them per window instead of per node
// leaves the deterministic no-abort search untouched.
func (w *worker[T]) poll() bool {
	sh := w.sh
	sh.nodes.Add(pollMask + 1)
	if sh.stop.get() == stopNone {
		s := checkCtx(sh.ctx)
		if s == stopNone {
			sh.inj.Disturb(sh.ctx, ptNode)
			return true
		}
		sh.stop.set(s)
		sh.fr.Abort()
	}
	w.dead = true
	return false
}

// offer publishes a selection that reaches the quota, with its score (see
// bestList.offer).
func (w *worker[T]) offer(cur []int, score int) {
	sh := w.sh
	sh.inj.Disturb(sh.ctx, ptIncumbent)
	if sh.best.offer(cur, score) {
		sh.frec.Record(flight.Event{Kind: flight.KindIncumbent, Name: sh.name, Stage: "solve",
			Detail: strconv.Itoa(len(cur)) + " sets", Value: sh.incumbents.Add(1)})
	}
}

// bound returns the incumbent's length and score (bestList.bound).
func (w *worker[T]) bound() (n, score int) { return w.sh.best.bound() }

// hungry reports whether to offload: the worker has peers, the pool runs low.
func (w *worker[T]) hungry() bool { return w.sh.workers > 1 && w.sh.fr.Hungry() }

// push offloads a subproblem to the pool; the task must own its storage.
func (w *worker[T]) push(t T) { w.sh.fr.Push(w.id, t) }

// result closes a solve past its entry check, given the search's answer in
// the caller's set indices, the root lower bound and start's heuristic
// (passed again, not kept in the driver, so the closure stays on the
// caller's stack). The solve is optimal iff nothing stopped it. After an
// abort it returns the heuristic's answer when that is shorter (the search
// seeds with greedy, maybe on a presolved remainder, and may stop before
// it beats the heuristic), with its gap against rootLB.
func (d *driver[T]) result(sel []int, rootLB int, heuristic func() ([]int, error)) (CoverResult, error) {
	res := CoverResult{Selected: sel, Optimal: d.stop == stopNone}
	if d.sh != nil {
		res.Nodes, res.Incumbents = int(d.sh.nodes.Load()), int(d.sh.incumbents.Load())
	}
	if !res.Optimal {
		g, err := heuristic()
		if err != nil {
			return CoverResult{}, err
		}
		if len(g) < len(sel) {
			res.Selected = g
		}
		res.Degradation = fmerr.DegradeIncumbent
		if total := len(res.Selected); total > rootLB && total > 0 {
			res.Gap = float64(total-rootLB) / float64(total)
		}
	}
	return d.exit(res)
}

// exit rolls the solve into the context observer and returns res, with the
// context error when the flow was cancelled.
func (d *driver[T]) exit(res CoverResult) (CoverResult, error) {
	if o := obs.From(d.ctx); o != nil {
		o.Counter("ilp.solves").Inc()
		o.Counter("ilp.nodes").Add(int64(res.Nodes))
		o.Counter("ilp.incumbents").Add(int64(res.Incumbents))
		o.Histogram("ilp.solve_nodes").Observe(int64(res.Nodes))
		if !res.Optimal {
			o.Counter("ilp.degraded").Inc()
			o.Gauge("ilp.last_gap").Set(res.Gap)
		}
		if d.sh != nil {
			o.Gauge("ilp.workers").Set(float64(d.workers))
			o.Counter("ilp.nodes_stolen").Add(d.sh.stolen.Load())
		}
	}
	if d.stop == stopCanceled {
		return res, fmerr.Wrap(fmerr.StageSolve, d.op, d.ctx.Err())
	}
	return res, nil
}
