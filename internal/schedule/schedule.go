// Package schedule implements the two-step test-schedule optimization of
// Sec. IV: first a minimum set of FAST clock periods is selected (PLL
// re-locking makes frequency count the dominant test-time term), then for
// each selected period a minimum set of (pattern, monitor-configuration)
// combinations. Both steps are set-covering problems solved either exactly
// as zero-one programs (the paper's proposed method, column "prop.") or by
// the greedy heuristic of [17] (column "heur."); the conventional-FAST
// baseline (column "conv.") runs without monitors.
package schedule

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"fastmon/internal/bitset"
	"fastmon/internal/cache"
	"fastmon/internal/chaos"
	"fastmon/internal/detect"
	"fastmon/internal/dot"
	"fastmon/internal/fmerr"
	"fastmon/internal/ilp"
	"fastmon/internal/obs"
	"fastmon/internal/par"
	"fastmon/internal/tunit"
)

// Chaos injection points at the two optimization steps of Fig. 4's
// scheduler: the Step-1 frequency-selection solve and each Step-2
// per-period combo solve.
var (
	ptFreq  = chaos.Register("schedule.freq", fmerr.StageSchedule)
	ptCombo = chaos.Register("schedule.combo", fmerr.StageSchedule)
)

// Method selects the optimization algorithm.
type Method int

const (
	// Conventional is FAST without monitors: detection through standard
	// flip-flops only; frequency and pattern selection still optimized.
	Conventional Method = iota
	// Heuristic uses monitors with greedy set covering ([17]).
	Heuristic
	// ILP uses monitors with exact zero-one programming (the paper).
	ILP
)

func (m Method) String() string {
	switch m {
	case Conventional:
		return "conv"
	case Heuristic:
		return "heur"
	case ILP:
		return "ilp"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// Options parameterizes schedule construction.
type Options struct {
	// Cfg is the detection configuration the ranges were computed under.
	Cfg detect.Config
	// Delays are the monitor delay elements (ignored for Conventional).
	Delays []tunit.Time
	// Method selects the algorithm.
	Method Method
	// Coverage is the required fraction of coverable target faults
	// (0 or 1 = full coverage; 0.99, 0.98, … for Table III).
	Coverage float64
	// FreeConfig lets every monitor select its own delay element per
	// application instead of the paper's shared setting — an optimistic
	// extension model that lower-bounds the achievable schedule size.
	FreeConfig bool
	// SolverBudget bounds each exact solve; exceeding it falls back to
	// the best incumbent (the paper aborts its ILP after 1 hour). Zero
	// means 10 seconds. The budget is per solve: when Step 2 fans out
	// across workers, every in-flight solve keeps its own full window, so
	// the degradation behaviour does not depend on the worker count.
	SolverBudget time.Duration
	// Workers bounds the Step-2 fan-out across periods and the worker
	// pool inside each exact covering solve; zero or negative means one
	// worker per CPU (par.ClampWorkers). Completed builds return the same
	// schedule for every worker count: the per-period solves are
	// independent and their bookkeeping merge is commutative. The effort
	// counters in Schedule.Solver are not: a parallel search expands nodes
	// and finds incumbents in a racy order.
	Workers int
}

func (o Options) budget() time.Duration {
	if o.SolverBudget <= 0 {
		return 10 * time.Second
	}
	return o.SolverBudget
}

// model returns the observation model of method m: the detection window
// with the delay elements, none for Conventional.
func (o Options) model(m Method) detect.Model {
	if m == Conventional {
		return o.Cfg.Model(nil)
	}
	return o.Cfg.Model(o.Delays)
}

// Combo is one schedule entry at a given period: pattern index plus
// monitor configuration (index into Options.Delays, detect.ConfigOff for
// "monitors unused / flip-flops only", or detect.ConfigFree for
// per-monitor independent settings).
type Combo struct {
	Pattern int
	Config  int
}

// PeriodPlan is the part of the schedule applied at one clock period.
type PeriodPlan struct {
	Period tunit.Time
	// Faults lists the target-fault indices assigned to this period by
	// the fault-dropping pass (Φ_j^opt).
	Faults []int
	// Combos is the optimized set of pattern-configuration combinations
	// covering Faults at this period (Ω_j).
	Combos []Combo
}

// SolverStats aggregates the exact-solver effort spent building one
// schedule: the covering solves run (frequency selection plus one combo
// selection per period), branch-and-bound nodes expanded, and incumbent
// improvements found. All zero for the greedy and conventional methods.
type SolverStats struct {
	Solves     int `json:"solves"`
	Nodes      int `json:"nodes"`
	Incumbents int `json:"incumbents"`
	// MaxGap is the largest relative bound gap any budget-aborted solve
	// exited with (zero when every solve proved optimality).
	MaxGap float64 `json:"max_gap,omitempty"`
}

// Merge rolls the effort o into the totals: counts add and MaxGap takes
// the larger. It is not goroutine-safe (SolverStats is a plain value that
// gets copied and JSON-marshaled); Build serializes concurrent merges
// under one mutex. Sums and a max commute, so merged totals do not depend
// on the merge order.
func (st *SolverStats) Merge(o SolverStats) {
	st.Solves += o.Solves
	st.Nodes += o.Nodes
	st.Incumbents += o.Incumbents
	st.MaxGap = max(st.MaxGap, o.MaxGap)
}

// Schedule is the complete FAST schedule S ⊆ F × P × C.
type Schedule struct {
	Method  Method
	Periods []PeriodPlan
	// Coverable is the number of target faults detectable at all under
	// the method's observation model.
	Coverable int
	// Covered is the number of target faults the schedule detects.
	Covered int
	// FreqOptimal / CombosOptimal report whether the respective solves
	// were proven optimal (false after budget fallback or for greedy).
	FreqOptimal   bool
	CombosOptimal bool
	// Degradation is the worst result-quality rung any covering solve of
	// this schedule settled on: exact when every exact solve proved
	// optimality, incumbent when a budget abort fell back to the
	// greedy-seeded incumbent. Greedy and conventional methods report
	// exact — the heuristic is the requested algorithm there, not a
	// degradation of it.
	Degradation fmerr.Degradation
	// Solver summarizes the exact-solver effort behind this schedule.
	Solver SolverStats
}

// merge rolls one covering solve of the schedule into its bookkeeping and
// reports whether the solve proved optimality. Only the ILP method's
// solves are exact: a greedy cover proves nothing and costs no solver
// effort, and the heuristic is the requested algorithm there, not a
// degradation of it.
func (s *Schedule) merge(res ilp.CoverResult) bool {
	if s.Method != ILP {
		return false
	}
	s.Degradation = fmerr.Worse(s.Degradation, res.Degradation)
	s.Solver.Merge(SolverStats{Solves: 1, Nodes: res.Nodes, Incumbents: res.Incumbents, MaxGap: res.Gap})
	return res.Optimal
}

// NumFrequencies returns |F|, the number of selected clock periods.
func (s *Schedule) NumFrequencies() int { return len(s.Periods) }

// Size returns |S|, the number of (f, p, c) applications.
func (s *Schedule) Size() int {
	n := 0
	for _, p := range s.Periods {
		n += len(p.Combos)
	}
	return n
}

// Problem is the schedule problem of one target-fault set: the detection
// data every schedule of that set reads, plus the work its schedules share.
// Step 0 — the combined detection ranges, the candidate periods and the
// coverable universe — depends only on the observation model (a
// detect.Model: the observation window and the delay elements), so it is
// computed on the first build of each model and kept; the data part of
// the cache key is hashed on the first build under a result cache. Tables
// II–III build seven schedules of one flow from two models. Only the
// candidates, the universe and the key state are kept, and the solvers
// only read the candidate fault sets.
//
// A Problem is safe for concurrent builds. The data must not change after
// the first build.
type Problem struct {
	// data holds exactly the target faults (Φ_tar); indices into it
	// identify faults throughout the schedule.
	data []detect.FaultData

	mu     sync.Mutex
	models []*step0

	keyOnce sync.Once
	keyHead *cache.Hasher
}

// step0 is the prepared Step 0 of one observation model.
type step0 struct {
	model    detect.Model
	once     sync.Once
	cands    []dot.Candidate
	universe *bitset.Set
}

// NewProblem wraps the target-fault detection data. It computes nothing up
// front.
func NewProblem(data []detect.FaultData) *Problem {
	return &Problem{data: data}
}

// Build constructs a schedule for the given target-fault detection data:
// a one-shot Problem. Callers that build several schedules of one target
// set share a Problem instead.
func Build(ctx context.Context, data []detect.FaultData, opt Options) (*Schedule, error) {
	return NewProblem(data).Build(ctx, opt)
}

// Build constructs a schedule of the problem.
//
// Each exact covering solve runs under a child context bounded by
// Options.SolverBudget; exceeding the budget degrades that solve to its
// incumbent (recorded in Schedule.Degradation). Cancelling ctx aborts the
// whole construction with a stage-attributed error.
func (p *Problem) Build(ctx context.Context, opt Options) (*Schedule, error) {
	if store := cache.From(ctx); store != nil {
		v, err := cache.Memo(ctx, store, p.cacheKey(opt),
			func(ctx context.Context) (Schedule, error) {
				s, err := p.build(ctx, opt)
				if err != nil {
					return Schedule{}, err
				}
				return *s, nil
			})
		if err != nil {
			return nil, err
		}
		return &v, nil
	}
	return p.build(ctx, opt)
}

// cacheKey fingerprints everything Build's output depends on. The schedule
// works on indices into the target data, so the fault identities are
// irrelevant; what matters is the exact detection-range structure (the
// Step-1 frequency cover and the Step-2 combo covers are both functions of
// it), the delay elements, the method, the coverage target, and the solver
// budget (a different budget can settle on a different incumbent). Worker
// count is excluded: a completed build returns the same schedule for any
// parallelism. Its effort counters are not identical — at Workers 2,
// Solver.Nodes and Solver.Incumbents differ from run to run — so a cache
// hit carries those of the run that filled the entry.
//
// The data frames come first, so they are hashed once per problem and
// every key is finished on a clone of that state.
func (p *Problem) cacheKey(opt Options) cache.Key {
	p.keyOnce.Do(func() {
		h := cache.NewHasher("schedule")
		h.Int("faults", int64(len(p.data)))
		var pts []tunit.Time // one boundary buffer for every range
		for i := range p.data {
			fd := &p.data[i]
			h.Int("fd.per", int64(len(fd.Per)))
			for _, pr := range fd.Per {
				h.Int("pr.pattern", int64(pr.Pattern))
				pts = pr.FF.AppendBoundaries(pts[:0])
				h.Times("pr.ff", pts)
				pts = pr.SR.AppendBoundaries(pts[:0])
				h.Times("pr.sr", pts)
			}
		}
		p.keyHead = h
	})
	h := p.keyHead.Clone()
	h.Time("cfg.clk", opt.Cfg.Clk)
	h.Time("cfg.tmin", opt.Cfg.TMin)
	h.Time("cfg.delta", opt.Cfg.Delta)
	h.Time("cfg.glitch", opt.Cfg.Glitch)
	h.Times("delays", opt.Delays)
	h.Int("method", int64(opt.Method))
	h.F64("coverage", opt.Coverage)
	h.Bool("freeconfig", opt.FreeConfig)
	h.Int("budget_ns", int64(opt.budget()))
	return h.Key()
}

// dropPool recycles the per-period fault-set scratch of the fault-dropping
// pass.
var dropPool bitset.Pool

// prepare returns the Step 0 of the observation model, computing it on
// the model's first build. The FreeConfig extension needs no model of its
// own: letting every monitor pick its delay changes which combos detect,
// not the union over them.
func (p *Problem) prepare(ctx context.Context, model detect.Model) *step0 {
	p.mu.Lock()
	var m *step0
	for _, e := range p.models {
		if e.model.Lo == model.Lo && e.model.Hi == model.Hi && slices.Equal(e.model.Delays, model.Delays) {
			m = e
			break
		}
	}
	if m == nil {
		model.Delays = slices.Clone(model.Delays)
		m = &step0{model: model}
		p.models = append(p.models, m)
	}
	p.mu.Unlock()
	m.once.Do(func() {
		m.cands = dot.Discretize(m.model.Ranges(p.data))
		m.universe = dot.CoverableFaults(m.cands, len(p.data))
		obs.From(ctx).Counter("schedule.step0_builds").Inc()
	})
	return m
}

// build is the uncached body of Build.
func (p *Problem) build(ctx context.Context, opt Options) (*Schedule, error) {
	data := p.data
	model := opt.model(opt.Method)
	s := &Schedule{Method: opt.Method}
	_, span := obs.StartSpan(ctx, "schedule")
	defer func() {
		o := obs.From(ctx)
		o.Counter("schedule.builds").Inc()
		o.Counter("schedule.frequencies").Add(int64(len(s.Periods)))
		o.Counter("schedule.combos").Add(int64(s.Size()))
		for _, p := range s.Periods {
			o.Histogram("schedule.combos_per_frequency").Observe(int64(len(p.Combos)))
		}
		span.End(
			slog.String("method", opt.Method.String()),
			slog.Int("frequencies", len(s.Periods)),
			slog.Int("combos", s.Size()),
			slog.Int("covered", s.Covered),
			slog.Int("solver_nodes", s.Solver.Nodes))
	}()

	// Step 0: combined detection ranges and observation-time candidates,
	// shared by every build of the observation model.
	m := p.prepare(ctx, model)
	cands, universe := m.cands, m.universe
	coverable := universe.Count()

	s.Coverable = coverable
	if coverable == 0 {
		s.FreqOptimal, s.CombosOptimal = true, true
		return s, nil
	}

	// Step 1: minimum clock-period selection.
	if err := chaos.Point(ctx, ptFreq); err != nil {
		return nil, fmerr.Wrap(fmerr.StageSchedule, "frequency-selection", err)
	}
	sets := make([]*bitset.Set, len(cands))
	for i, c := range cands {
		sets[i] = c.Faults
	}
	quota := Quota(coverable, opt.Coverage)
	res, err := solve(ctx, opt, sets, universe, quota)
	if err != nil {
		return nil, fmerr.Wrap(fmerr.StageSchedule, "frequency-selection", err)
	}
	selected := res.Selected
	s.FreqOptimal = s.merge(res)

	// Fault dropping: process the selected periods by decreasing fault
	// count; each fault is assigned to the first period that detects it.
	// The covering solvers' abort fallback (ilp.dropRedundant) drops
	// periods in this same order, which is what keeps an aborted ILP
	// selection from ending with more periods than the heuristic's.
	cnt := make([]int, len(cands))
	for _, ci := range selected {
		cnt[ci] = cands[ci].Faults.Count()
	}
	sort.SliceStable(selected, func(a, b int) bool {
		return cnt[selected[a]] > cnt[selected[b]]
	})
	assigned := bitset.New(len(data))
	plans := make([]PeriodPlan, 0, len(selected))
	for _, ci := range selected {
		c := cands[ci]
		if quota >= coverable && c.Faults.AndNotCount(assigned) == 0 {
			// Full coverage: nothing new here, skip without cloning.
			continue
		}
		mine := dropPool.CloneOf(c.Faults)
		mine.AndNot(assigned)
		if quota < coverable {
			// Partial coverage: stop assigning once the quota is reached.
			deficit := quota - assigned.Count()
			if deficit <= 0 {
				dropPool.Put(mine)
				break
			}
			if mine.Count() > deficit {
				// Keep only the first `deficit` faults for determinism.
				members := mine.Members(nil)
				mine.Clear()
				for _, fi := range members[:deficit] {
					mine.Add(fi)
				}
			}
		}
		if mine.Empty() {
			dropPool.Put(mine)
			continue
		}
		assigned.Or(mine)
		plans = append(plans, PeriodPlan{Period: c.T, Faults: mine.Members(nil)})
		dropPool.Put(mine)
	}
	s.Covered = assigned.Count()

	// Step 2: per period, minimum pattern-configuration selection. The
	// periods are independent after fault dropping, so the solves fan out
	// with par.Each, each call owning the plan it is handed. The shared
	// bookkeeping (CombosOptimal, Degradation, SolverStats) funnels
	// through one mutex-guarded merge whose operations are all
	// commutative (AND, max, sums), so the merge order cannot change the
	// Schedule; it equals the serial build's up to the effort counters.
	s.CombosOptimal = true
	workers := par.ClampWorkersFor(opt.Workers, len(plans))
	cfgs := model.Configs(opt.FreeConfig)
	var mu sync.Mutex
	step2Start := time.Now()
	busy, err := par.Each(workers, len(plans), func(_, pi int) error {
		if err := ctx.Err(); err != nil {
			return fmerr.Wrap(fmerr.StageSchedule, "combo-selection", err)
		}
		if err := chaos.Point(ctx, ptCombo); err != nil {
			return fmerr.Wrap(fmerr.StageSchedule, "combo-selection", err)
		}
		res, err := optimizeCombos(ctx, data, &plans[pi], opt, model, cfgs)
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		s.CombosOptimal = s.merge(res) && s.CombosOptimal
		return nil
	})
	if err != nil {
		return nil, err
	}
	o := obs.From(ctx)
	if poolNs := int64(workers) * int64(time.Since(step2Start)); poolNs > 0 {
		o.Gauge("schedule.worker_utilization").Set(float64(busy) / float64(poolNs))
	}
	if workers > 1 {
		o.Counter("schedule.parallel_combos").Add(int64(len(plans)))
	}
	sort.Slice(plans, func(a, b int) bool { return plans[a].Period < plans[b].Period })
	s.Periods = plans
	return s, nil
}

// Quota returns the number of faults a partial-coverage target requires:
// ⌈coverable · coverage⌉ in exact integer arithmetic. Coverage targets
// are taken at micro-precision (rounded to the nearest 1e-6, which covers
// every value the paper's Table III uses), so float representation error
// in products like 1000 × 0.999 can never shift the quota by one fault —
// the defect the former float-plus-0.999999 rounding hack had. Coverage
// values ≤ 0 or ≥ 1 mean full coverage.
func Quota(coverable int, coverage float64) int {
	if coverage <= 0 || coverage >= 1 || coverable <= 0 {
		return coverable
	}
	num := int64(math.Round(coverage * 1e6))
	q := (int64(coverable)*num + 999999) / 1000000
	if q > int64(coverable) {
		return coverable
	}
	if q < 0 {
		return 0
	}
	return int(q)
}

// solve covers quota elements of universe with sets for one step of a
// schedule: under the ILP method exactly, by SetCover for the whole
// universe and PartialCover below it, in a child context carrying the
// per-solve budget (the paper aborts its ILP after one hour); otherwise by
// the greedy cover of [17], unproven.
func solve(ctx context.Context, opt Options, sets []*bitset.Set, universe *bitset.Set, quota int) (ilp.CoverResult, error) {
	if opt.Method != ILP {
		sel, err := ilp.GreedyPartialCover(sets, universe, quota)
		return ilp.CoverResult{Selected: sel}, err
	}
	sctx, cancel := context.WithTimeout(ctx, opt.budget())
	defer cancel()
	if quota == universe.Count() {
		return ilp.SetCover(sctx, sets, universe, ilp.Options{Workers: opt.Workers})
	}
	return ilp.PartialCover(sctx, sets, universe, quota, ilp.Options{Workers: opt.Workers})
}

// optimizeCombos fills plan.Combos with a minimal covering set of
// (pattern, config) combinations for the faults assigned to the period
// and returns the solve for the caller to merge. Membership is the
// model's test on the raw ranges, split so that the FF range is tested
// once per pattern and the SR range (Model.ViaMonitor) once per config
// only where FF misses. The period is a Step-0 candidate, so it lies in
// the observation window. The caller owns plan.
func optimizeCombos(ctx context.Context, data []detect.FaultData, plan *PeriodPlan, opt Options,
	model detect.Model, cfgs []int) (ilp.CoverResult, error) {

	type key struct{ pattern, config int }
	cover := map[key]*bitset.Set{}
	t := plan.Period
	for _, fi := range plan.Faults {
		for _, pr := range data[fi].Per {
			ff := pr.FF.Contains(t)
			for _, ci := range cfgs {
				if ff || model.ViaMonitor(pr.SR, t, ci) {
					k := key{pr.Pattern, ci}
					if cover[k] == nil {
						cover[k] = bitset.New(len(data))
					}
					cover[k].Add(fi)
				}
			}
		}
	}
	keys := make([]key, 0, len(cover))
	for k := range cover {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].pattern != keys[b].pattern {
			return keys[a].pattern < keys[b].pattern
		}
		return keys[a].config < keys[b].config
	})
	sets := make([]*bitset.Set, len(keys))
	for i, k := range keys {
		sets[i] = cover[k]
	}
	target := bitset.New(len(data))
	for _, fi := range plan.Faults {
		target.Add(fi)
	}
	res, err := solve(ctx, opt, sets, target, len(plan.Faults))
	if err != nil {
		return res, fmerr.Wrap(fmerr.StageSchedule, fmt.Sprintf("combo-selection@%s", plan.Period), err)
	}
	for _, i := range res.Selected {
		plan.Combos = append(plan.Combos, Combo{Pattern: keys[i].pattern, Config: keys[i].config})
	}
	return res, nil
}

// Validate checks that the schedule really covers every fault it claims:
// each assigned fault must be detected by at least one combo of its
// period. It returns an error describing the first violation, including a
// fault index outside data and a combo config that names no delay element.
func Validate(data []detect.FaultData, s *Schedule, opt Options) error {
	model := opt.model(s.Method)
	total := 0
	for _, plan := range s.Periods {
		t := plan.Period
		for _, fi := range plan.Faults {
			if fi < 0 || fi >= len(data) {
				return fmt.Errorf("schedule: period %s: fault %d out of range [0, %d)", t, fi, len(data))
			}
			ok := false
			for _, c := range plan.Combos {
				if c.Config < detect.ConfigFree || c.Config >= len(model.Delays) {
					return fmt.Errorf("schedule: period %s: fault %d: combo config %d names no delay element (%d configured)",
						t, fi, c.Config, len(model.Delays))
				}
				if ok {
					continue
				}
				for _, pr := range data[fi].Per {
					if pr.Pattern == c.Pattern && model.Detects(pr, t, c.Config) {
						ok = true
						break
					}
				}
			}
			if !ok {
				return fmt.Errorf("schedule: fault %d not covered at period %s", fi, t)
			}
			total++
		}
	}
	if total != s.Covered {
		return fmt.Errorf("schedule: covers %d faults, claims %d", total, s.Covered)
	}
	return nil
}
