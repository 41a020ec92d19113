package main

import (
	"bytes"
	"context"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"time"

	"fastmon/internal/aging"
	"fastmon/internal/cache"
	"fastmon/internal/cell"
	"fastmon/internal/circuit"
	"fastmon/internal/core"
	"fastmon/internal/detect"
	"fastmon/internal/exper"
	"fastmon/internal/fault"
	"fastmon/internal/fmerr"
	"fastmon/internal/sim"
)

// maxFaults bounds the sampled fault universe of every circuit, as the
// default tablegen run does.
const maxFaults = 2500

// budget is the solver budget per exact covering solve: tablegen's
// default.
const budget = 5 * time.Second

// params fixes what a workload runs. Worker counts never exceed two, the
// core count of the host the baseline was measured on; a traced run uses
// one worker throughout (newRun).
type params struct {
	Circuits  []string  // suite circuits, by name
	Scale     float64   // circuit scale factor
	Workers   int       // worker count of every parallel stage
	SetupReps int       // set-up repetitions
	Instances []int64   // sched-s9234, warm-rerun: ATPG seeds of the instance pool
	Years     []float64 // aging-resim: lifetime sweep points
}

func (p params) suite() exper.SuiteConfig {
	return exper.SuiteConfig{Scale: p.Scale, MaxFaults: maxFaults, Workers: p.Workers, SolverBudget: budget}
}

// def names a workload, its parameters and its implementation.
type def struct {
	name   string
	params params
	make   func() workload
}

// iscas is the ISCAS'89 part of the paper suite: the rows of the default
// tablegen Table I run.
var iscas = []string{"s9234", "s13207", "s15850", "s35932", "s38417", "s38584"}

// pool holds the ATPG seeds of the s9234 instances (scale 0.075) whose
// Tables II–III schedules the schedule workloads build: of seeds 1–40,
// the eight that took longest to schedule (0.2–1.0 s on the reference
// host) among those whose every exact solve finished within 0.7 s, a
// seventh of the budget. The solver's search, not its budget, sets their
// time. At tablegen's scale 0.08 the 99 % target outlasts the budget on
// almost every seed (README.md).
var pool = []int64{2, 4, 8, 11, 24, 26, 29, 31}

// workloads are the benchmark's scenarios; BENCHMARK.json says why each
// exists and README.md what each should and should not move.
var workloads = []def{
	{
		name:   "cold-iscas",
		params: params{Circuits: iscas, Scale: 0.08, Workers: 2, SetupReps: 25},
		make:   func() workload { return &coldISCAS{} },
	},
	{
		name:   "sched-s9234",
		params: params{Circuits: []string{"s9234"}, Scale: 0.075, Workers: 1, SetupReps: len(pool), Instances: pool},
		make:   func() workload { return &schedS9234{} },
	},
	{
		name:   "warm-rerun",
		params: params{Circuits: []string{"s9234"}, Scale: 0.075, Workers: 2, SetupReps: 3, Instances: pool},
		make:   func() workload { return &warmRerun{} },
	},
	{
		name:   "aging-resim",
		params: params{Circuits: []string{"s38584"}, Scale: 0.05, Workers: 2, SetupReps: 3, Years: []float64{0, 2, 5, 10, 15, 20}},
		make:   func() workload { return &agingResim{} },
	},
}

func lookup(name string) (def, bool) {
	for _, d := range workloads {
		if d.name == name {
			return d, true
		}
	}
	return def{}, false
}

func sumProp(rows []exper.T1Row) float64 {
	n := 0
	for _, row := range rows {
		n += row.Prop
	}
	return float64(n)
}

// order returns the order in which a pass visits n instances: a
// permutation drawn from the run seed.
func order(seed int64, n int) []int {
	return rand.New(rand.NewPCG(uint64(seed), 0x62656e6368)).Perm(n)
}

// instances returns the workload's pool instances: its one netlist with
// each pool ATPG seed.
func (r *run) instances() ([]exper.Spec, error) {
	specs, err := r.netlists()
	if err != nil {
		return nil, err
	}
	out := make([]exper.Spec, len(r.p.Instances))
	for k, seed := range r.p.Instances {
		out[k] = specs[0]
		out[k].Seed = seed
	}
	return out, nil
}

// coldISCAS times Table I of the ISCAS rows without a result cache. Set-up
// generates the netlists; every pass runs every circuit with the ATPG
// seed derived from the run seed and the circuit.
type coldISCAS struct{ specs []exper.Spec }

func (w *coldISCAS) setup(r *run, _ int) (err error) {
	w.specs, err = r.netlists()
	for i := range w.specs {
		w.specs[i].Seed = derive(r.seed, w.specs[i].Seed)
	}
	return err
}

func (w *coldISCAS) pass(r *run, i int) error {
	rows := make([]exper.T1Row, 0, len(w.specs))
	for _, s := range w.specs {
		res, err := r.flow(r.ctx, s, r.p.suite())
		if err != nil {
			return err
		}
		rows = append(rows, exper.TableI(res))
	}
	r.checking(func() { r.shape(rows, nil) })
	if i == 0 {
		exper.WriteTableI(&r.pinned, rows)
	}
	r.detected(i, sumProp(rows))
	return nil
}

func (w *coldISCAS) close() {}

// schedS9234 times the schedules of Tables II and III. Set-up repetition
// k runs the flow of pool instance k; every pass builds the schedules of
// every instance, in an order drawn from the run seed.
type schedS9234 struct {
	runs []*exper.Run
	rows []exper.T1Row
}

func (w *schedS9234) setup(r *run, rep int) error {
	specs, err := r.netlists()
	if err != nil {
		return err
	}
	s := specs[0]
	s.Seed = r.p.Instances[rep]
	res, err := r.flow(r.ctx, s, r.p.suite())
	if err != nil {
		return err
	}
	w.runs = append(w.runs, res)
	w.rows = append(w.rows, exper.TableI(res))
	if rep == r.p.SetupReps-1 {
		exper.WriteTableI(&r.pinned, w.rows)
	}
	return nil
}

func (w *schedS9234) pass(r *run, i int) error {
	sets := make([]tableSet, len(w.runs))
	for _, k := range order(r.seed, len(w.runs)) {
		ts, err := r.tables(r.ctx, w.runs[k])
		if err != nil {
			return err
		}
		r.validate(w.runs[k], ts)
		sets[k] = ts
	}
	r.checking(func() { r.shape(w.rows, sets) })
	q := quality{}
	for k, ts := range sets {
		for _, p := range ts.plans[2:] {
			r.check(p.s.Degradation == fmerr.DegradeNone, "instance %d ILP@%.2f ended %v within the %v budget",
				r.p.Instances[k], p.cov, p.s.Degradation, budget)
			q.TestFreqs += p.s.NumFrequencies()
			q.TestApps += p.s.Size()
		}
	}
	r.scheduled(i, q)
	r.detected(i, sumProp(w.rows))
	return nil
}

func (w *schedS9234) close() {}

// warmRerun times Tables I–III read back from a result cache. Each set-up
// repetition runs the cold pipeline into a fresh cache; each pass reopens
// the last one and must reproduce its tables and schedules byte for byte
// without a single miss.
type warmRerun struct {
	specs []exper.Spec
	dir   string     // the cache the passes read
	cold  warmTables // what the cold pipeline that filled it produced
}

// warmTables is what one run of the pipeline produces.
type warmTables struct {
	text   []byte   // Tables I–III
	table1 []byte   // the Table I part of text
	scheds []string // JSON of every schedule, by instance and plan
	hdf    float64  // Σ Table I prop
}

// pipeline runs Tables I–III of every instance against ctx's cache, in an
// order drawn from the run seed. A cold run also validates the schedules
// and checks the rows' shape; a warm run is checked against the cold one
// instead.
func (w *warmRerun) pipeline(ctx context.Context, r *run, cold bool) (warmTables, error) {
	var out warmTables
	sets := make([]tableSet, len(w.specs))
	for _, k := range order(r.seed, len(w.specs)) {
		res, err := r.flow(ctx, w.specs[k], r.p.suite())
		if err != nil {
			return out, err
		}
		ts, err := r.tables(ctx, res)
		if err != nil {
			return out, err
		}
		if cold {
			r.validate(res, ts)
		}
		sets[k] = ts
	}
	var t1 []exper.T1Row
	var t2 []exper.T2Row
	var t3 []exper.T3Row
	for _, ts := range sets {
		t1, t2, t3 = append(t1, ts.t1), append(t2, ts.t2), append(t3, ts.t3)
		for _, p := range ts.plans {
			out.scheds = append(out.scheds, encode(p.s))
		}
	}
	if cold {
		r.checking(func() { r.shape(t1, sets) })
	}
	var b bytes.Buffer
	exper.WriteTableI(&b, t1)
	out.table1 = append([]byte(nil), b.Bytes()...)
	exper.WriteTableII(&b, t2)
	exper.WriteTableIII(&b, t3)
	out.text, out.hdf = b.Bytes(), sumProp(t1)
	return out, nil
}

func (w *warmRerun) setup(r *run, rep int) error {
	specs, err := r.instances()
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(r.root, "warm-")
	if err != nil {
		return err
	}
	store, err := r.open(dir)
	if err != nil {
		os.RemoveAll(dir)
		return err
	}
	w.specs = specs
	cold, err := w.pipeline(cache.With(r.ctx, store), r, true)
	if err != nil {
		os.RemoveAll(dir)
		return err
	}
	if rep > 0 {
		r.check(bytes.Equal(cold.table1, w.cold.table1), "cold Table I differs between set-up repetitions")
	}
	w.close()
	w.dir, w.cold = dir, cold
	if rep == r.p.SetupReps-1 {
		r.pinned.Write(cold.table1)
	}
	return nil
}

func (w *warmRerun) pass(r *run, i int) error {
	store, err := r.open(w.dir)
	if err != nil {
		return err
	}
	warm, err := w.pipeline(cache.With(r.ctx, store), r, false)
	if err != nil {
		return err
	}
	rep := store.Report()
	r.check(bytes.Equal(warm.text, w.cold.text), "warm Tables I-III differ from the cold pass")
	r.check(slices.Equal(warm.scheds, w.cold.scheds), "warm schedules differ from the cold pass")
	r.check(rep.Misses == 0 && rep.Corrupt == 0, "warm pass: %d misses, %d corrupt entries", rep.Misses, rep.Corrupt)
	r.count("cache.hits", float64(rep.Hits))
	r.count("cache.misses", float64(rep.Misses))
	r.count("cache.puts", float64(rep.Puts))
	r.countMax("cache.mb", float64(store.Bytes())/1e6)
	r.detected(i, warm.hdf)
	return nil
}

func (w *warmRerun) close() {
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
}

// agingResim times the lifetime sweep of s38584 with its pattern set in
// the cache. Each set-up repetition generates the patterns into a fresh
// cache (the year-0 point). Every pass sweeps the lifetime, with the aging
// model seeded from the run seed, against a fresh copy of the last of
// those caches, so ATPG hits the cache on every point while fault
// simulation reruns on every aged annotation.
type agingResim struct {
	dir  string // the cache holding the pattern set
	spec exper.Spec
}

func (w *agingResim) setup(r *run, _ int) error {
	specs, err := r.netlists()
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(r.root, "aging-")
	if err != nil {
		return err
	}
	store, err := r.open(dir)
	if err == nil {
		_, _, err = w.sweep(cache.With(r.ctx, store), r, specs[0], aging.DefaultModel(0), []float64{0})
	}
	if err != nil {
		os.RemoveAll(dir)
		return err
	}
	w.close()
	w.dir, w.spec = dir, specs[0]
	return nil
}

// sweep runs exper.LifetimeSweep as one timed call.
func (w *agingResim) sweep(ctx context.Context, r *run, s exper.Spec, m aging.Model, years []float64) (int, []exper.LifetimePoint, error) {
	var pts []exper.LifetimePoint
	id, _, err := r.call(s.Name, "aging.sweep", func() (err error) {
		pts, err = exper.LifetimeSweep(ctx, s, r.p.suite(), m, years)
		return err
	})
	return id, pts, err
}

func (w *agingResim) pass(r *run, i int) error {
	dir, err := os.MkdirTemp(r.root, "aging-pass-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if err := copyDir(w.dir, dir); err != nil {
		return err
	}
	store, err := r.open(dir)
	if err != nil {
		return err
	}
	ctx := cache.With(r.ctx, store)
	model := aging.DefaultModel(derive(r.seed))
	id, pts, err := w.sweep(ctx, r, w.spec, model, r.p.Years)
	if err != nil {
		return err
	}
	rep := store.Report()
	n := int64(len(r.p.Years))
	// Every point hits the pattern set and the fresh point hits its
	// detection data; only the aged points simulate and store theirs.
	r.check(rep.Hits == n+1 && rep.Misses == n-1, "sweep: %d cache hits, %d misses over %d points", rep.Hits, rep.Misses, n)
	r.check(len(pts) == len(r.p.Years), "sweep returned %d points for %d years", len(pts), n)
	hdf := 0
	for k, p := range pts {
		r.check(p.HDFProp >= p.HDFConv, "year %.0f: %d HDFs with monitors < %d without", p.Years, p.HDFProp, p.HDFConv)
		if k == 0 {
			r.check(p.Years > 0 || p.CPLGrowthPct == 0, "fresh device shows %.2f%% path growth", p.CPLGrowthPct)
		} else {
			r.check(p.CPLGrowthPct >= pts[k-1].CPLGrowthPct, "critical path shrank with age at year %.0f", p.Years)
		}
		hdf += p.HDFProp
	}
	if i == 0 {
		exper.WriteLifetime(&r.pinned, pts)
	}
	r.detected(i, float64(hdf))
	r.count("cache.hits", float64(rep.Hits))
	r.count("cache.misses", float64(rep.Misses))
	r.count("cache.puts", float64(rep.Puts))
	r.count("aging.points", float64(n))
	r.countMax("cache.mb", float64(store.Bytes())/1e6)
	if r.tracing() {
		w.replay(ctx, r, store, id, model)
	}
	return nil
}

// replay re-derives every aged sweep point's flow from the cache and
// replays its fault simulation without the cache, the stage that
// dominates a point. It mirrors the set-up exper.LifetimeSweep performs
// per point. The fresh point is skipped: the sweep read its detection
// data from the cache set-up filled.
func (w *agingResim) replay(ctx context.Context, r *run, store *cache.Store, parent int, model aging.Model) {
	cfg := r.p.suite()
	var c *circuit.Circuit
	if r.replay(parent, "circuit.build", func() (err error) {
		c, err = w.spec.Build(cfg.Scale)
		return err
	}) != nil {
		return
	}
	lib := cell.NanGate45()
	fresh := cell.Annotate(c, lib)
	sampleK := 1
	if n := len(fault.Universe(c)); n > maxFaults {
		sampleK = (n + maxFaults - 1) / maxFaults
	}
	before := store.Report()
	for _, y := range r.p.Years {
		if y == 0 {
			continue
		}
		aged := aging.Degrade(fresh, model, y)
		f, err := core.Run(ctx, c, lib, aged, core.Config{
			FaultSampleK: sampleK, ATPGSeed: w.spec.Seed, Workers: cfg.Workers, SolverBudget: cfg.SolverBudget,
		})
		r.check(err == nil, "year %.0f: re-deriving the flow: %v", y, err)
		if err != nil {
			return
		}
		var data []detect.FaultData
		if r.replay(parent, "detect.run", func() (err error) {
			data, err = detect.Run(r.ctx, sim.NewEngine(c, aged), f.Placement, f.HDFs, f.Patterns, f.DetectCfg)
			return err
		}) == nil {
			r.check(encode(data) == encode(f.Data), "year %.0f: replayed detection differs from the sweep's data", y)
		}
		r.countDetect(len(f.Patterns), data)
	}
	after := store.Report()
	r.check(after.Misses == before.Misses, "replayed sweep points missed the cache %d times", after.Misses-before.Misses)
}

func (w *agingResim) close() {
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
}

// copyDir copies the regular files of the flat directory src into dst.
func copyDir(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
