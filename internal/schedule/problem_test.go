package schedule

import (
	"context"
	"strings"
	"sync"
	"testing"

	"fastmon/internal/bitset"
	"fastmon/internal/cache"
	"fastmon/internal/detect"
	"fastmon/internal/interval"
	"fastmon/internal/obs"
	"fastmon/internal/tunit"
)

// tablePlans returns the options of the seven schedules Tables II–III
// build from one target set: conventional, heuristic and ILP at full
// coverage, then ILP at 99, 98, 95 and 90 %.
func tablePlans(opt Options) []Options {
	var plans []Options
	for _, m := range []Method{Conventional, Heuristic, ILP} {
		o := opt
		o.Method, o.Coverage = m, 1
		plans = append(plans, o)
	}
	for _, cov := range []float64{0.99, 0.98, 0.95, 0.90} {
		o := opt
		o.Method, o.Coverage = ILP, cov
		plans = append(plans, o)
	}
	return plans
}

// TestProblemKeepsCandidates builds the seven Tables II–III schedules of
// one problem and checks what the builds share: Step 0 runs once per
// observation model, its combined ranges equal FaultData.Combined, and the
// solvers leave the shared candidate fault sets as they found them.
func TestProblemKeepsCandidates(t *testing.T) {
	data, opt := referenceData(42, 120, 8, 3)
	p := NewProblem(data)
	o := obs.New(nil)
	ctx := obs.With(context.Background(), o)
	plans := tablePlans(opt)
	if _, err := p.Build(ctx, plans[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Build(ctx, plans[2]); err != nil {
		t.Fatal(err)
	}
	type snapshot struct {
		set   *bitset.Set
		fp    uint64
		clone *bitset.Set
	}
	var before []snapshot
	for _, m := range p.models {
		for _, c := range m.cands {
			before = append(before, snapshot{c.Faults, c.Faults.Fingerprint(), c.Faults.Clone()})
		}
	}
	if len(p.models) != 2 || len(before) == 0 {
		t.Fatalf("%d models with %d candidates, want 2 models with candidates", len(p.models), len(before))
	}
	for _, plan := range plans {
		s, err := p.Build(ctx, plan)
		if err != nil {
			t.Fatal(err)
		}
		if err := Validate(data, s, plan); err != nil {
			t.Fatalf("%v@%g: %v", plan.Method, plan.Coverage, err)
		}
	}
	for i, b := range before {
		if b.set.Fingerprint() != b.fp || !b.set.Equal(b.clone) {
			t.Fatalf("candidate set %d changed during the builds", i)
		}
	}
	if got := o.Counter("schedule.step0_builds").Value(); got != 2 {
		t.Fatalf("schedule.step0_builds = %d after the seven schedules, want 2", got)
	}

	for _, m := range p.models {
		cfg := detect.Config{TMin: m.lo, Clk: m.hi - 1}
		for fi, r := range combinedRanges(data, m.lo, m.hi, m.delays) {
			if want := data[fi].Combined(cfg, m.delays); !r.Equal(want) {
				t.Fatalf("fault %d, %d delays: combined %v, FaultData.Combined %v", fi, len(m.delays), r, want)
			}
		}
	}
}

// TestProblemConcurrentBuilds runs the seven Tables II–III schedules of
// one problem at once, twice each, under a result cache: Step 0 and the
// key prefix are prepared by whichever build gets there first, and every
// schedule must equal a fresh one-shot Build.
func TestProblemConcurrentBuilds(t *testing.T) {
	data, opt := referenceData(42, 120, 8, 3)
	opt.Workers = 1
	store, err := cache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New(nil)
	ctx := cache.With(obs.With(context.Background(), o), store)
	p := NewProblem(data)
	plans := tablePlans(opt)
	got := make([]*Schedule, 2*len(plans))
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = p.Build(ctx, plans[i%len(plans)])
		}(i)
	}
	wg.Wait()
	for i, s := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		plan := plans[i%len(plans)]
		want, err := Build(context.Background(), data, plan)
		if err != nil {
			t.Fatal(err)
		}
		if !scheduleEqual(s, want) {
			t.Fatalf("%v@%g: concurrent build differs from a fresh one", plan.Method, plan.Coverage)
		}
	}
	if n := o.Counter("schedule.step0_builds").Value(); n != 2 {
		t.Fatalf("schedule.step0_builds = %d, want 2", n)
	}
}

// TestMembershipMatchesCombined checks the direct membership test of
// Step 2 and Validate against the allocating range algebra: a (pattern,
// config) pair detects at t iff t lies in the observation window and in
// I_FF, or ViaMonitor holds, exactly when CombinedAt (CombinedFree for
// ConfigFree) contains t. The probes are every range boundary, shifted by
// every delay, and their neighbours.
func TestMembershipMatchesCombined(t *testing.T) {
	s27, s27opt := buildS27(t)
	gen, genOpt := referenceData(42, 120, 8, 3)
	checked := 0
	for _, inst := range []struct {
		data []detect.FaultData
		opt  Options
	}{{s27, s27opt}, {gen, genOpt}} {
		cfg, delays := inst.opt.Cfg, inst.opt.Delays
		lo, hi := cfg.ObservationWindow()
		configs := []int{ConfigOff, ConfigFree}
		for ci := range delays {
			configs = append(configs, ci)
		}
		for fi, fd := range inst.data {
			for _, pr := range fd.Per {
				probes := []tunit.Time{lo - 1, lo, hi - 1, hi}
				for _, b := range pr.FF.AppendBoundaries(nil) {
					probes = append(probes, b-1, b)
				}
				for _, b := range pr.SR.AppendBoundaries(nil) {
					for _, d := range delays {
						probes = append(probes, b+d-1, b+d)
					}
				}
				for _, ci := range configs {
					var want interval.Set
					switch {
					case ci == ConfigFree:
						want = pr.CombinedFree(cfg, delays)
					case ci >= 0:
						want = pr.CombinedAt(cfg, delays[ci])
					default:
						want = pr.CombinedAt(cfg, -1)
					}
					for _, at := range probes {
						got := at >= lo && at < hi && (pr.FF.Contains(at) || ViaMonitor(pr.SR, at, ci, delays))
						if got != want.Contains(at) {
							t.Fatalf("fault %d pattern %d config %d at %s: direct %v, combined range %v says %v",
								fi, pr.Pattern, ci, at, got, want, !got)
						}
						checked++
					}
				}
			}
		}
	}
	if checked < 1000 {
		t.Fatalf("only %d membership probes checked", checked)
	}
}

// TestStep0Metrics checks the schedule layer's counters: a one-shot Build
// prepares Step 0 once, and the Step-2 pool reports a utilization in
// (0, 1].
func TestStep0Metrics(t *testing.T) {
	data, opt := referenceData(42, 120, 8, 3)
	o := obs.New(nil)
	ctx := obs.With(context.Background(), o)
	if _, err := Build(ctx, data, opt); err != nil {
		t.Fatal(err)
	}
	if got := o.Counter("schedule.step0_builds").Value(); got != 1 {
		t.Fatalf("schedule.step0_builds = %d, want 1", got)
	}
	if util := o.Gauge("schedule.worker_utilization").Value(); util <= 0 || util > 1.0001 {
		t.Fatalf("worker_utilization = %f, want in (0, 1]", util)
	}
}

// refCacheKey hashes a schedule key straight through, as every build did
// before the data frames were shared across a problem's keys.
func refCacheKey(data []detect.FaultData, opt Options) cache.Key {
	h := cache.NewHasher("schedule")
	h.Int("faults", int64(len(data)))
	for _, fd := range data {
		h.Int("fd.per", int64(len(fd.Per)))
		for _, pr := range fd.Per {
			h.Int("pr.pattern", int64(pr.Pattern))
			h.Times("pr.ff", pr.FF.AppendBoundaries(nil))
			h.Times("pr.sr", pr.SR.AppendBoundaries(nil))
		}
	}
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

// TestProblemCacheKey checks that the keys a problem finishes on clones of
// its hashed data equal keys hashed straight through, and pins one key, so
// that a change of the key derivation fails here: caches written by earlier
// builds must keep hitting.
func TestProblemCacheKey(t *testing.T) {
	data, opt := referenceData(42, 120, 8, 3)
	opt.SolverBudget = 5e9
	p := NewProblem(data)
	for _, plan := range tablePlans(opt) {
		for _, free := range []bool{false, true} {
			plan.FreeConfig = free
			if got, want := p.cacheKey(plan), refCacheKey(data, plan); got != want {
				t.Fatalf("%v@%g free=%v: key %s, straight through %s", plan.Method, plan.Coverage, free, got, want)
			}
		}
	}
	opt.Coverage = 0.95
	const pinned = "schedule-ef038f06083f12b97ea95901607583bd49733ec7da149a4643dc49e50eafbcd5"
	if got := p.cacheKey(opt).String(); got != pinned {
		t.Fatalf("schedule key drifted:\n got %s\nwant %s", got, pinned)
	}
}

// TestValidateRejectsBadIndices checks that Validate reports a combo
// config that names no delay element, and a fault index outside the
// data, as errors naming the period, the fault and the config instead of
// panicking, and that a period outside the observation window covers
// nothing even where the flip-flop range holds it.
func TestValidateRejectsBadIndices(t *testing.T) {
	cfg := detect.Config{Clk: 1000, TMin: 300}
	data := synthetic(cfg, interval.FromPoints(200, 500))
	opt := Options{Cfg: cfg, Delays: []tunit.Time{50, 100}, Method: Conventional}
	sched := func(period tunit.Time, fault, config int) *Schedule {
		return &Schedule{Method: Conventional, Covered: 1, Periods: []PeriodPlan{{
			Period: period, Faults: []int{fault}, Combos: []Combo{{Pattern: 0, Config: config}},
		}}}
	}
	if err := Validate(data, sched(450, 0, ConfigOff), opt); err != nil {
		t.Fatalf("valid schedule: %v", err)
	}
	for _, c := range []struct {
		period        tunit.Time
		fault, config int
		want          []string
	}{
		{450, 0, 3, []string{"period 450ps", "fault 0", "config 3"}},
		{450, 0, 0, []string{"period 450ps", "fault 0", "config 0"}}, // Conventional: no delays
		{450, 0, -3, []string{"period 450ps", "fault 0", "config -3"}},
		{450, 1, ConfigOff, []string{"period 450ps", "fault 1"}},
		{450, -1, ConfigOff, []string{"period 450ps", "fault -1"}},
		{250, 0, ConfigOff, []string{"period 250ps", "fault 0", "not covered"}}, // below TMin
	} {
		err := Validate(data, sched(c.period, c.fault, c.config), opt)
		if err == nil {
			t.Fatalf("period %s fault %d config %d: Validate accepted it", c.period, c.fault, c.config)
		}
		for _, w := range c.want {
			if !strings.Contains(err.Error(), w) {
				t.Fatalf("period %s fault %d config %d: error %q does not name %q", c.period, c.fault, c.config, err, w)
			}
		}
	}
}
