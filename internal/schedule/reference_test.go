package schedule

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"fastmon/internal/bitset"
	"fastmon/internal/detect"
	"fastmon/internal/dot"
	"fastmon/internal/fmerr"
	"fastmon/internal/ilp"
	"fastmon/internal/interval"
	"fastmon/internal/tunit"
)

// The allocating range algebra the detection model replaced, kept here
// as the reference kernel's construction of the detection ranges, on the
// window [TMin, Clk+1).

// ffUnion returns the union of the flip-flop ranges over all patterns.
func ffUnion(fd *detect.FaultData) interval.Set {
	var a interval.Accum
	for _, pr := range fd.Per {
		a.Add(pr.FF)
	}
	return a.Result()
}

// srUnion returns the union of the unshifted shadow-register ranges over
// all patterns.
func srUnion(fd *detect.FaultData) interval.Set {
	var a interval.Accum
	for _, pr := range fd.Per {
		a.Add(pr.SR)
	}
	return a.Result()
}

// combined returns the full detection range
//
//	I(φ) = I_FF ∪ ⋃_{d∈C} (I_SR + d)
//
// clipped to the observation window [TMin, Clk].
func combined(fd *detect.FaultData, cfg detect.Config, delays []tunit.Time) interval.Set {
	lo, hi := cfg.TMin, cfg.Clk+1
	u := ffUnion(fd).Clip(lo, hi)
	sr := srUnion(fd)
	for _, d := range delays {
		u = u.Union(sr.Shift(d).Clip(lo, hi))
	}
	return u
}

// combinedAt returns the detection range of the fault under one pattern
// and monitor configuration (delay d; d < 0 means "flip-flops only"),
// clipped to the observation window.
func combinedAt(pr detect.PatternRange, cfg detect.Config, d tunit.Time) interval.Set {
	lo, hi := cfg.TMin, cfg.Clk+1
	u := pr.FF.Clip(lo, hi)
	if d >= 0 {
		u = u.Union(pr.SR.Shift(d).Clip(lo, hi))
	}
	return u
}

// combinedFree returns the detection range of the fault under one pattern
// when every monitor may select its own delay element independently.
func combinedFree(pr detect.PatternRange, cfg detect.Config, delays []tunit.Time) interval.Set {
	lo, hi := cfg.TMin, cfg.Clk+1
	u := pr.FF.Clip(lo, hi)
	for _, d := range delays {
		u = u.Union(pr.SR.Shift(d).Clip(lo, hi))
	}
	return u
}

// referenceBuild is a verbatim transcription of the schedule kernel as it
// stood before the interval-kernel overhaul: per-fault combined ranges
// recomputed up front with the allocating operations, Clone-based fault
// dropping, and per-period combo covers that recompute
// combinedAt/combinedFree at every lookup. It is the oracle of
// TestScheduleKernelMatchesReference: Build, which prepares Step 0 with
// the detection model's in-place kernel and tests range membership on the
// raw FF and SR ranges, must produce bit-identical schedules.
func referenceBuild(ctx context.Context, data []detect.FaultData, opt Options) (*Schedule, error) {
	delays := opt.Delays
	if opt.Method == Conventional {
		delays = nil
	}
	s := &Schedule{Method: opt.Method}

	ranges := make([]interval.Set, len(data))
	for i := range data {
		ranges[i] = combined(&data[i], opt.Cfg, delays)
	}
	cands := dot.Discretize(ranges)
	universe := dot.CoverableFaults(cands, len(data))
	coverable := universe.Count()
	s.Coverable = coverable
	if coverable == 0 {
		s.FreqOptimal, s.CombosOptimal = true, true
		return s, nil
	}

	sets := make([]*bitset.Set, len(cands))
	for i, c := range cands {
		sets[i] = c.Faults
	}
	quota := Quota(coverable, opt.Coverage)
	var selected []int
	var err error
	switch {
	case opt.Method == ILP:
		sctx, cancel := context.WithTimeout(ctx, opt.budget())
		var res ilp.CoverResult
		if quota == coverable {
			res, err = ilp.SetCover(sctx, sets, universe, ilp.Options{Workers: opt.Workers})
		} else {
			res, err = ilp.PartialCover(sctx, sets, universe, quota, ilp.Options{Workers: opt.Workers})
		}
		cancel()
		selected, s.FreqOptimal = res.Selected, res.Optimal
		s.Degradation = fmerr.Worse(s.Degradation, res.Degradation)
		s.Solver.Merge(SolverStats{Solves: 1, Nodes: res.Nodes, Incumbents: res.Incumbents, MaxGap: res.Gap})
	case quota == coverable:
		selected, err = ilp.GreedyCover(sets, universe)
	default:
		selected, err = ilp.GreedyPartialCover(sets, universe, quota)
	}
	if err != nil {
		return nil, err
	}

	sort.SliceStable(selected, func(a, b int) bool {
		return cands[selected[a]].Faults.Count() > cands[selected[b]].Faults.Count()
	})
	assigned := bitset.New(len(data))
	plans := make([]PeriodPlan, 0, len(selected))
	for _, ci := range selected {
		c := cands[ci]
		mine := c.Faults.Clone()
		mine.AndNot(assigned)
		if quota < coverable {
			deficit := quota - assigned.Count()
			if deficit <= 0 {
				break
			}
			if mine.Count() > deficit {
				members := mine.Members(nil)
				mine.Clear()
				for _, fi := range members[:deficit] {
					mine.Add(fi)
				}
			}
		}
		if mine.Empty() {
			continue
		}
		assigned.Or(mine)
		plans = append(plans, PeriodPlan{Period: c.T, Faults: mine.Members(nil)})
	}
	s.Covered = assigned.Count()

	s.CombosOptimal = true
	for pi := range plans {
		if err := referenceOptimizeCombos(ctx, data, &plans[pi], opt, delays, s); err != nil {
			return nil, err
		}
	}
	sort.Slice(plans, func(a, b int) bool { return plans[a].Period < plans[b].Period })
	s.Periods = plans
	return s, nil
}

func referenceOptimizeCombos(ctx context.Context, data []detect.FaultData, plan *PeriodPlan,
	opt Options, delays []tunit.Time, s *Schedule) error {

	configs := []int{detect.ConfigOff}
	if len(delays) > 0 {
		if opt.FreeConfig {
			configs = []int{detect.ConfigFree}
		} else {
			configs = configs[:0]
			for ci := range delays {
				configs = append(configs, ci)
			}
		}
	}
	type key struct{ pattern, config int }
	cover := map[key]*bitset.Set{}
	for _, fi := range plan.Faults {
		for _, pr := range data[fi].Per {
			for _, ci := range configs {
				var rng interval.Set
				switch {
				case ci == detect.ConfigFree:
					rng = combinedFree(pr, opt.Cfg, delays)
				case ci >= 0:
					rng = combinedAt(pr, opt.Cfg, delays[ci])
				default:
					rng = combinedAt(pr, opt.Cfg, -1)
				}
				if rng.Contains(plan.Period) {
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
	var chosen []int
	if opt.Method == ILP {
		sctx, cancel := context.WithTimeout(ctx, opt.budget())
		res, err := ilp.SetCover(sctx, sets, target, ilp.Options{Workers: opt.Workers})
		cancel()
		if err != nil {
			return err
		}
		chosen = res.Selected
		if !res.Optimal {
			s.CombosOptimal = false
		}
		s.Degradation = fmerr.Worse(s.Degradation, res.Degradation)
		s.Solver.Merge(SolverStats{Solves: 1, Nodes: res.Nodes, Incumbents: res.Incumbents, MaxGap: res.Gap})
	} else {
		var err error
		chosen, err = ilp.GreedyCover(sets, target)
		if err != nil {
			return err
		}
		s.CombosOptimal = false
	}
	for _, i := range chosen {
		plan.Combos = append(plan.Combos, Combo{Pattern: keys[i].pattern, Config: keys[i].config})
	}
	return nil
}

// referenceData generates synthetic circuits exercising every config
// regime: monitors with shared settings, FreeConfig, no delays, and
// patterns whose SR ranges differ from FF (so the shifted monitor
// membership tests actually matter).
func referenceData(seed int64, nFaults, nPatterns, nDelays int) ([]detect.FaultData, Options) {
	cfg := detect.Config{Clk: 1000, TMin: 100, Delta: 5}
	rng := rand.New(rand.NewSource(seed))
	data := make([]detect.FaultData, nFaults)
	for i := range data {
		nPer := 1 + rng.Intn(3)
		for p := 0; p < nPer; p++ {
			lo := tunit.Time(100 + rng.Intn(700))
			hi := lo + tunit.Time(40+rng.Intn(200))
			pr := detect.PatternRange{
				Pattern: rng.Intn(nPatterns),
				FF:      interval.FromPoints(lo, hi),
			}
			if rng.Intn(2) == 0 {
				slo := tunit.Time(100 + rng.Intn(700))
				pr.SR = interval.FromPoints(slo, slo+tunit.Time(30+rng.Intn(150)))
			}
			data[i].Per = append(data[i].Per, pr)
		}
	}
	var delays []tunit.Time
	for d := 0; d < nDelays; d++ {
		delays = append(delays, tunit.Time(50*(d+1)))
	}
	return data, Options{Cfg: cfg, Delays: delays, Method: ILP}
}

// TestScheduleKernelMatchesReference is the differential lock on the
// schedule kernel: Build must produce schedules bit-identical to the
// reference kernel, which recomputes every range with the allocating
// operations, across the paper's s27 suite and generated circuits, all
// methods, full and partial coverage, FreeConfig on and off, and
// Workers ∈ {1, 4}.
func TestScheduleKernelMatchesReference(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	type instance struct {
		name string
		data []detect.FaultData
		opt  Options
	}
	var instances []instance
	s27data, s27opt := buildS27(t)
	instances = append(instances, instance{"s27", s27data, s27opt})
	gen1, genOpt1 := referenceData(42, 120, 8, 3)
	instances = append(instances, instance{"gen-delays", gen1, genOpt1})
	gen2, genOpt2 := referenceData(7, 80, 6, 0)
	instances = append(instances, instance{"gen-nodelays", gen2, genOpt2})

	for _, inst := range instances {
		for _, m := range []Method{ILP, Heuristic, Conventional} {
			for _, cov := range []float64{1.0, 0.9} {
				for _, free := range []bool{false, true} {
					if free && len(inst.opt.Delays) == 0 {
						continue
					}
					o := inst.opt
					o.Method, o.Coverage, o.FreeConfig = m, cov, free
					o.Workers = 1
					name := fmt.Sprintf("%s/%v/cov=%g/free=%v", inst.name, m, cov, free)
					ref, err := referenceBuild(context.Background(), inst.data, o)
					if err != nil {
						t.Fatalf("%s reference: %v", name, err)
					}
					for _, w := range []int{1, 4} {
						o.Workers = w
						got, err := Build(context.Background(), inst.data, o)
						if err != nil {
							t.Fatalf("%s workers=%d: %v", name, w, err)
						}
						if !scheduleEqual(ref, got) {
							t.Fatalf("%s workers=%d: schedule differs from reference:\nref: %+v\nnew: %+v",
								name, w, ref, got)
						}
						if err := Validate(inst.data, got, o); err != nil {
							t.Fatalf("%s workers=%d: %v", name, w, err)
						}
					}
				}
			}
		}
	}
}
