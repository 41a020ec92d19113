package main

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"

	"fastmon/internal/atpg"
	"fastmon/internal/cache"
	"fastmon/internal/circuit"
	"fastmon/internal/detect"
	"fastmon/internal/exper"
	"fastmon/internal/fmerr"
	"fastmon/internal/obs"
	"fastmon/internal/schedule"
	"fastmon/internal/sim"
)

// derive mixes a run seed with further integers into a positive 31-bit
// seed (splitmix64 over the parts).
func derive(parts ...int64) int64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, p := range parts {
		h ^= uint64(p)
		h += 0x9e3779b97f4a7c15
		h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
		h = (h ^ h>>27) * 0x94d049bb133111eb
		h ^= h >> 31
	}
	return int64(h >> 33)
}

// encode returns the JSON encoding of a value that always encodes (plain
// data without channels, functions or cyclic pointers). The result cache
// stores values this way, so comparing encodings compares a value decoded
// from the cache with a computed one regardless of representation (nil
// against empty).
func encode(v any) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// servedFromCache reports whether a call between two reports of one store
// hit it and never missed.
func servedFromCache(before, after *obs.CacheReport) bool {
	return before != nil && after != nil && after.Hits > before.Hits && after.Misses == before.Misses
}

// netlists generates the named suite circuits at the workload's scale and
// carries each as a literal .bench netlist, so that a circuit keeps its
// structure while its Seed field sets only the ATPG seed.
func (r *run) netlists() ([]exper.Spec, error) {
	out := make([]exper.Spec, 0, len(r.p.Circuits))
	for _, name := range r.p.Circuits {
		spec, ok := exper.SpecByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown circuit %q", name)
		}
		_, _, err := r.call(name, "circuit.generate", func() error {
			c, err := spec.Build(r.p.Scale)
			if err != nil {
				return err
			}
			var b strings.Builder
			if err := circuit.WriteBench(&b, c); err != nil {
				return err
			}
			spec.Bench = b.String()
			return nil
		})
		if err != nil {
			return nil, err
		}
		out = append(out, spec)
	}
	return out, nil
}

// open opens the result cache in dir as one timed call.
func (r *run) open(dir string) (*cache.Store, error) {
	var store *cache.Store
	_, _, err := r.call("cache", "cache.open", func() (err error) {
		store, err = cache.Open(dir, 0)
		return err
	})
	return store, err
}

// flow runs exper.RunCircuit as one timed call. In a traced pass it
// replays the circuit build, and, unless the cache served the whole flow,
// atpg.Generate and detect.Run on the flow's own inputs, to split the
// call's time into layers; the replays must reproduce the flow's output.
func (r *run) flow(ctx context.Context, s exper.Spec, cfg exper.SuiteConfig) (*exper.Run, error) {
	store := cache.From(ctx)
	before := store.Report()
	var res *exper.Run
	id, d, err := r.call(s.Name, "core.flow", func() (err error) {
		res, err = exper.RunCircuit(ctx, s, cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	hit := servedFromCache(before, store.Report())
	if hit {
		r.count("cache.flow_hit_s", d.Seconds())
	}
	if r.tracing() {
		_ = r.replay(id, "circuit.build", func() error {
			_, err := s.Build(cfg.Scale)
			return err
		})
		if !hit {
			r.replayStages(id, res)
		}
	}
	return res, nil
}

// replayStages replays ATPG and fault simulation of a computed flow.
func (r *run) replayStages(parent int, res *exper.Run) {
	f := res.Flow
	acfg := atpg.DefaultConfig(f.Config.ATPGSeed)
	acfg.Workers = f.Config.Workers
	var pats []sim.Pattern
	var st atpg.Stats
	if r.replay(parent, "atpg.generate", func() (err error) {
		pats, st, err = atpg.Generate(r.ctx, f.Circuit, f.Universe, acfg)
		return err
	}) == nil {
		r.check(reflect.DeepEqual(pats, f.Patterns) && st == f.ATPGStats,
			"%s: replayed ATPG differs from the flow's patterns", res.Spec.Name)
	}
	r.count("atpg.patterns", float64(len(pats)))
	r.count("atpg.backtracks", float64(st.Backtracks))
	r.count("atpg.faults", float64(st.Faults))
	r.count("atpg.aborted", float64(st.Aborted))
	r.count("atpg.detected", float64(st.Detected))
	r.count("atpg.random", float64(st.RandomDetected))

	var data []detect.FaultData
	if r.replay(parent, "detect.run", func() (err error) {
		data, err = detect.Run(r.ctx, sim.NewEngine(f.Circuit, f.Annot), f.Placement, f.HDFs, f.Patterns, f.DetectCfg)
		return err
	}) == nil {
		r.check(reflect.DeepEqual(data, f.Data), "%s: replayed detection differs from the flow's data", res.Spec.Name)
	}
	r.countDetect(len(f.Patterns), data)
}

// countDetect counts the fault-pattern pairs one detect.Run simulated and
// the pairs that detect the fault.
func (r *run) countDetect(patterns int, data []detect.FaultData) {
	hits := 0
	for _, fd := range data {
		hits += len(fd.Per)
	}
	r.count("detect.pairs", float64(len(data)*patterns))
	r.count("detect.hits", float64(hits))
}

// plan is one schedule of Tables II and III.
type plan struct {
	method schedule.Method
	cov    float64
	s      *schedule.Schedule
}

// tableSet holds one flow's Tables I–III rows and the seven schedules
// behind Tables II and III.
type tableSet struct {
	t1    exper.T1Row
	t2    exper.T2Row
	t3    exper.T3Row
	plans []plan
}

// tables builds the schedules of Tables II and III for one flow, one
// timed Flow.BuildSchedule call each, and derives the rows the way
// exper.TableII and exper.TableIII do. The benchmark builds the schedules
// itself, rather than calling those two functions, so that it can time,
// count and validate every one of them.
func (r *run) tables(ctx context.Context, res *exper.Run) (tableSet, error) {
	f := res.Flow
	ts := tableSet{t1: exper.TableI(res), t3: exper.T3Row{Name: res.Spec.Name}}
	ts.plans = []plan{{method: schedule.Conventional, cov: 1}, {method: schedule.Heuristic, cov: 1}, {method: schedule.ILP, cov: 1}}
	for _, cov := range exper.TableIIICoverages {
		ts.plans = append(ts.plans, plan{method: schedule.ILP, cov: cov})
	}
	for i := range ts.plans {
		s, err := r.schedule(ctx, res, ts.plans[i].method, ts.plans[i].cov)
		if err != nil {
			return ts, err
		}
		ts.plans[i].s = s
	}
	nP, nC := len(f.Patterns), f.Placement.NumConfigs()
	conv, heur, prop := ts.plans[0].s, ts.plans[1].s, ts.plans[2].s
	ts.t2 = exper.T2Row{
		Name:    res.Spec.Name,
		ConvF:   conv.NumFrequencies(),
		HeurF:   heur.NumFrequencies(),
		PropF:   prop.NumFrequencies(),
		ConvCov: conv.Coverable,
		PropCov: prop.Coverable,
		Orig:    schedule.ComboUniverse(nP, nC, prop.NumFrequencies()),
		Opti:    prop.Size(),
	}
	if ts.t2.ConvF > 0 {
		ts.t2.DeltaFPct = (1 - float64(ts.t2.PropF)/float64(ts.t2.ConvF)) * 100
	}
	ts.t2.DeltaPCPct = schedule.ReductionPercent(ts.t2.Orig, ts.t2.Opti)
	for _, p := range ts.plans[3:] {
		cell := exper.T3Cell{
			Cov: p.cov,
			F:   p.s.NumFrequencies(),
			PC:  schedule.ComboUniverse(nP, nC, p.s.NumFrequencies()),
			S:   p.s.Size(),
		}
		cell.DeltaPct = schedule.ReductionPercent(cell.PC, cell.S)
		ts.t3.Cells = append(ts.t3.Cells, cell)
	}
	return ts, nil
}

// schedule builds one schedule as a timed call and counts the solver's
// effort when it computed the schedule rather than reading it back.
func (r *run) schedule(ctx context.Context, res *exper.Run, m schedule.Method, cov float64) (*schedule.Schedule, error) {
	store := cache.From(ctx)
	before := store.Report()
	var s *schedule.Schedule
	_, d, err := r.call(res.Spec.Name, "schedule."+m.String(), func() (err error) {
		s, err = res.Flow.BuildSchedule(ctx, m, cov)
		return err
	})
	if err != nil {
		return nil, err
	}
	if m == schedule.ILP {
		r.count("schedule.test_freqs", float64(s.NumFrequencies()))
		r.count("schedule.test_apps", float64(s.Size()))
	}
	switch {
	case servedFromCache(before, store.Report()):
		r.count("cache.schedule_hit_s", d.Seconds())
	case m == schedule.ILP:
		r.count("ilp.schedules", 1)
		r.count("ilp.s", d.Seconds())
		r.count("ilp.solves", float64(s.Solver.Solves))
		r.count("ilp.nodes", float64(s.Solver.Nodes))
		r.count("ilp.incumbents", float64(s.Solver.Incumbents))
		r.countMax("ilp.max_gap", s.Solver.MaxGap)
		if s.Degradation == fmerr.DegradeNone {
			r.count("ilp.exact", 1)
		} else {
			r.count("ilp.budget_s", d.Seconds())
		}
	}
	return s, nil
}

// validate checks every schedule of a table set: it must pass
// schedule.Validate and cover at least its coverage quota.
func (r *run) validate(res *exper.Run, ts tableSet) {
	f := res.Flow
	r.checking(func() {
		for _, p := range ts.plans {
			_, _, _ = r.call(res.Spec.Name, "schedule.validate", func() error {
				return schedule.Validate(f.TargetData, p.s, f.ScheduleOptions(p.method, p.cov))
			})
			q := schedule.Quota(p.s.Coverable, p.cov)
			r.check(p.s.Covered >= q, "%s %v@%.2f: covers %d faults, quota %d", res.Spec.Name, p.method, p.cov, p.s.Covered, q)
		}
	})
}

// exact reports whether the solver proved every schedule optimal.
func exact(plans []plan) bool {
	for _, p := range plans {
		if p.s.Degradation != fmerr.DegradeNone {
			return false
		}
	}
	return true
}

// shape checks the rows against the paper's qualitative claims. The
// Table II and III claims (the ILP needs no more frequencies than the
// heuristic; |F| shrinks with the coverage target) hold for optimal
// schedules, so a row enters them only when the solver proved its ILP
// schedules optimal: a budget-aborted incumbent claims no optimality,
// and whether a solve finishes within its budget depends on host speed.
func (r *run) shape(t1 []exper.T1Row, sets []tableSet) {
	var t2 []exper.T2Row
	var t3 []exper.T3Row
	for _, ts := range sets {
		if exact(ts.plans[2:3]) {
			t2 = append(t2, ts.t2)
		}
		if exact(ts.plans[3:]) {
			t3 = append(t3, ts.t3)
		}
	}
	for _, v := range exper.ShapeChecks(t1, t2, t3) {
		r.check(!strings.HasPrefix(v, "MISMATCH"), "shape check: %s", v)
	}
}
