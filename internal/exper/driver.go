package exper

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fastmon/internal/chaos"
	"fastmon/internal/fmerr"
	"fastmon/internal/obs"
	"fastmon/internal/obs/flight"
	"fastmon/internal/par"
	"fastmon/internal/schedule"
)

// ptCircuit is the harness layer's chaos injection point: the per-circuit
// compute dispatch.
var ptCircuit = chaos.Register("exper.circuit", fmerr.StageExper)

// TableRequest names the artifacts a harness run wants per circuit.
type TableRequest struct {
	T1 bool
	T2 bool
	T3 bool
	// Fig3Steps > 0 requests the Fig. 3 sweep with that many steps. The
	// driver requests it only for the first circuit, matching the paper.
	Fig3Steps int
}

// CircuitResult is the outcome of one suite circuit: the derived rows
// rather than the flow itself (detection data does not serialize
// compactly, and the tables are what the harness is after). The run
// manifest lists one per circuit.
type CircuitResult struct {
	Name string `json:"name"`
	// Scale and MaxFaults record the suite configuration the result was
	// computed under (neither is ever 0 there); fastmon leaves them out.
	Scale     float64 `json:"scale,omitempty"`
	MaxFaults int     `json:"max_faults,omitempty"`

	T1   *T1Row      `json:"t1,omitempty"`
	T2   *T2Row      `json:"t2,omitempty"`
	T3   *T3Row      `json:"t3,omitempty"`
	Fig3 []Fig3Point `json:"fig3,omitempty"`

	// Degradation records the worst result-quality rung among the
	// schedules behind T2/T3 ("exact" or "incumbent").
	Degradation string `json:"degradation,omitempty"`

	// Elapsed is the circuit's wall-clock time in this run, so a rerun
	// whose stages the result cache serves reports the time it took to
	// read them back. Stages breaks it down by pipeline stage (build, sta,
	// classify, atpg, detect, extract, schedule) and is empty when no
	// observer was attached.
	Elapsed time.Duration            `json:"elapsed_ns,omitempty"`
	Stages  map[string]time.Duration `json:"stages_ns,omitempty"`
	// Solver aggregates the exact-solver effort over every schedule built
	// for this circuit (T2's ILP column plus all T3 coverage targets).
	Solver *schedule.SolverStats `json:"solver,omitempty"`
}

// ComputeCircuit runs one suite circuit end to end and derives the
// requested artifacts. It returns the result and the flow it was derived
// from. When an observer is attached to ctx the whole computation runs
// under a span named after the circuit, and the result carries the
// per-stage wall-clock breakdown extracted from the direct child spans
// (build, sta, classify, atpg, detect, extract, schedule).
func ComputeCircuit(ctx context.Context, spec Spec, cfg SuiteConfig, req TableRequest) (*CircuitResult, *Run, error) {
	cfg = cfg.Defaults()
	o := obs.From(ctx)
	mark := o.Mark()
	start := time.Now()
	cctx, span := obs.StartSpan(ctx, spec.Name)
	r, err := RunCircuit(cctx, spec, cfg)
	if err != nil {
		span.End()
		return nil, nil, err
	}
	res := &CircuitResult{Name: spec.Name, Scale: cfg.Scale, MaxFaults: cfg.MaxFaults}
	var built []*schedule.Schedule
	if req.T1 {
		row := TableI(r)
		res.T1 = &row
	}
	if req.T2 {
		row, schedules, err := TableII(cctx, r)
		if err != nil {
			span.End()
			return nil, nil, err
		}
		res.T2 = &row
		for _, s := range schedules {
			built = append(built, s)
		}
	}
	if req.T3 {
		row, schedules, err := TableIII(cctx, r)
		if err != nil {
			span.End()
			return nil, nil, err
		}
		res.T3 = &row
		built = append(built, schedules...)
	}
	if req.Fig3Steps > 0 {
		res.Fig3 = Fig3(r, req.Fig3Steps)
	}
	worst := fmerr.DegradeNone
	var solver schedule.SolverStats
	for _, s := range built {
		worst = fmerr.Worse(worst, s.Degradation)
		solver.Merge(s.Solver)
	}
	res.Degradation = worst.String()
	span.End()
	res.Elapsed = time.Since(start)
	if solver.Solves > 0 {
		res.Solver = &solver
	}
	if stages := stageBreakdown(o.SpansSince(mark), spec.Name); len(stages) > 0 {
		res.Stages = stages
	}
	return res, r, nil
}

// stageBreakdown sums the direct child spans of the circuit span into a
// per-stage duration map ("s9234/atpg" -> stages["atpg"]). Deeper
// descendants and unrelated spans are ignored.
func stageBreakdown(recs []obs.SpanRecord, circuit string) map[string]time.Duration {
	prefix := circuit + "/"
	var stages map[string]time.Duration
	for _, rec := range recs {
		rest, ok := strings.CutPrefix(rec.Path, prefix)
		if !ok || strings.Contains(rest, "/") {
			continue
		}
		if stages == nil {
			stages = map[string]time.Duration{}
		}
		stages[rest] += rec.Duration
	}
	return stages
}

// SuiteEvent is one progress notification from RunSuite. Each circuit
// produces two events: a start event (Res nil) when a worker picks the
// circuit up and a completion event carrying its result. A circuit whose
// stages the result cache serves still produces both.
type SuiteEvent struct {
	// Index (0-based) and Total locate the circuit within the run.
	Index int
	Total int
	Spec  Spec
	// Res is nil for a start event, the circuit's result otherwise.
	Res *CircuitResult
	// Run is nil for a start event, the circuit's flow otherwise. The
	// suite keeps no flow once the event is delivered, so a caller that
	// needs one (the single-circuit studies) keeps it from here.
	Run *Run
}

// SuiteProgress receives SuiteEvents during a suite run.
type SuiteProgress func(ev SuiteEvent)

// RunSuite drives the configured suite subset. Circuits run concurrently
// on a bounded worker pool (SuiteConfig.Workers, default one per CPU);
// results are always returned in suite/spec order regardless of
// completion order, and progress callbacks are serialized. Every stage
// memoizes through the result cache riding ctx (cache.With), so a stopped
// or crashed run resumes by rerunning with the same cache: completed
// stages are read back and only the rest are computed.
//
// Closing stop requests a graceful shutdown: no new circuits are
// dispatched, the in-flight ones finish, then the run returns the results
// so far with a partial-result error (degradation "partial"). Cancelling
// ctx aborts the in-flight circuits themselves. On a circuit failure the
// run stops dispatching and reports the error of the lowest-index failed
// circuit alongside every completed result. progress may be nil.
func RunSuite(ctx context.Context, cfg SuiteConfig, req TableRequest,
	stop <-chan struct{}, progress SuiteProgress) (results []*CircuitResult, err error) {

	// Suite-level panic isolation: the harness entry points (suite
	// selection, dispatch bookkeeping) run outside the per-circuit
	// recover, so a panic there — including an injected one — must still
	// surface as a typed error, never escape to the caller. The flight
	// recorder (when attached) journals the panic and dumps its ring for
	// post-mortem.
	rec := obs.From(ctx).Flight()
	defer func() {
		if r := recover(); r != nil {
			pe := fmerr.NewPanic(chaos.StageOf(r, fmerr.StageExper), "suite", r)
			rec.Record(flight.Event{Kind: flight.KindPanic, Name: "suite",
				Stage: string(pe.Stage), Detail: pe.Error()})
			rec.AutoDump("recovered panic") //nolint:errcheck // best-effort post-mortem
			results, err = nil, pe
		}
	}()

	cfg = cfg.Defaults()
	specs, err := cfg.Select()
	if err != nil {
		return nil, err
	}
	stopped := func() bool {
		if stop == nil {
			return false
		}
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	workers := par.ClampWorkersFor(cfg.Workers, len(specs))
	o := obs.From(ctx)
	var (
		mu       sync.Mutex // guards slots and progress calls
		slots    = make([]*CircuitResult, len(specs))
		inflight atomic.Int64
	)
	// runOne computes one circuit with panic isolation: a panic anywhere
	// under the circuit — a worker pool re-raising a recovered worker
	// panic, or a chaos-injected one — becomes a typed *fmerr.PanicError
	// attributed to the stage it fired in, so one crashing circuit fails
	// the run with attribution instead of killing the process.
	runOne := func(spec Spec, creq TableRequest) (res *CircuitResult, run *Run, err error) {
		defer func() {
			if r := recover(); r != nil {
				pe := fmerr.NewPanic(chaos.StageOf(r, fmerr.StageExper), spec.Name, r)
				rec.Record(flight.Event{Kind: flight.KindPanic, Name: spec.Name,
					Stage: string(pe.Stage), Detail: pe.Error()})
				rec.AutoDump("recovered panic") //nolint:errcheck // best-effort post-mortem
				err = pe
			}
		}()
		if err := chaos.Point(ctx, ptCircuit); err != nil {
			return nil, nil, fmerr.Wrap(fmerr.StageExper, spec.Name, err)
		}
		res, run, err = ComputeCircuit(ctx, spec, cfg, creq)
		if err != nil {
			return nil, nil, fmerr.Wrap(fmerr.StageExper, spec.Name, err)
		}
		return res, run, nil
	}
	_, err = par.Each(workers, len(specs), func(_, i int) error {
		if stopped() {
			return nil // graceful stop: this circuit is never started
		}
		if err := ctx.Err(); err != nil {
			return fmerr.Wrap(fmerr.StageExper, "suite", err)
		}
		spec := specs[i]
		creq := req
		if i > 0 {
			creq.Fig3Steps = 0 // Fig. 3 is evaluated on the first circuit only
		}
		if progress != nil {
			mu.Lock()
			progress(SuiteEvent{Index: i, Total: len(specs), Spec: spec})
			mu.Unlock()
		}
		o.Gauge("exper.circuits_inflight").Set(float64(inflight.Add(1)))
		res, run, err := runOne(spec, creq)
		o.Gauge("exper.circuits_inflight").Set(float64(inflight.Add(-1)))
		if err != nil {
			return err
		}
		mu.Lock()
		slots[i] = res
		if progress != nil {
			progress(SuiteEvent{Index: i, Total: len(specs), Spec: spec, Res: res, Run: run})
		}
		mu.Unlock()
		return nil
	})
	out := make([]*CircuitResult, 0, len(specs))
	for _, r := range slots {
		if r != nil {
			out = append(out, r)
		}
	}
	if err != nil {
		return out, err
	}
	if len(out) < len(specs) {
		return out, fmerr.Errorf(fmerr.StageExper, "suite",
			"stopped after %d of %d circuits (results are partial)", len(out), len(specs))
	}
	return out, nil
}
