// Package detect computes detection ranges: it drives the timing-accurate
// fault simulator over the whole pattern set and fault list (flow step 2
// of Fig. 4), splits the per-tap difference waveforms into the flip-flop
// part I_FF and the shadow-register part I_SR (steps 3–4), and applies the
// pessimistic glitch filtering of Fig. 1. Its observation Model owns the
// paper's detection rule: the capture window, the monitor shift and the
// per-fault classification every later step reads.
//
// Per-fault, per-pattern ranges are kept sparse — only patterns that
// detect a fault at all are stored — because the scheduler's second
// optimization step needs to know which (pattern, configuration)
// combinations detect each fault at a chosen clock period.
package detect

import (
	"context"
	"fmt"
	"log/slog"
	"sort"
	"time"

	"fastmon/internal/cache"
	"fastmon/internal/chaos"
	"fastmon/internal/circuit"
	"fastmon/internal/fault"
	"fastmon/internal/fmerr"
	"fastmon/internal/interval"
	"fastmon/internal/monitor"
	"fastmon/internal/obs"
	"fastmon/internal/obs/flight"
	"fastmon/internal/par"
	"fastmon/internal/sim"
	"fastmon/internal/tunit"
)

// Chaos injection points at the two worker-dispatch boundaries: one per
// fault-free baseline (phase A), one per fault shard (phase B). Both
// sit inside the worker goroutines, so injected panics exercise the
// recover-and-attribute paths below.
var (
	ptBaseline = chaos.Register("detect.baseline", fmerr.StageDetect)
	ptShard    = chaos.Register("detect.shard", fmerr.StageDetect)
)

// Config parameterizes the detection-range computation.
type Config struct {
	// Clk is the nominal clock period t_nom.
	Clk tunit.Time
	// TMin is the minimum FAST clock period 1/f_max.
	TMin tunit.Time
	// Delta is the fault size δ.
	Delta tunit.Time
	// Glitch is the pulse-filtering threshold: detection intervals
	// shorter than this are discarded pessimistically, and glitch-sized
	// gaps between intervals are NOT merged (kept disjoint, per Fig. 1).
	Glitch tunit.Time
	// Workers bounds the simulation goroutines, resolved by
	// par.ClampWorkersFor: zero and negative values use every CPU,
	// requests beyond GOMAXPROCS or the fault count are cut down instead
	// of oversubscribing.
	Workers int
	// SlowSim is the escape hatch that routes every (fault, pattern) pair
	// through the naive full-resimulation engine (sim.FaultSimNaive)
	// instead of the event-driven fast path. It exists for differential
	// debugging: the two engines are bit-identical by contract, so any
	// divergence observed by flipping this flag is a simulator bug. The
	// naive path also skips the cone-reachability pruning, making it the
	// independent reference.
	SlowSim bool
}

// PatternRange holds the detection ranges of one fault under one pattern.
// Both sets are *unshifted* and unclipped within [0, Clk]: FF is the union
// over all observation points, SR the union over monitored observation
// points only. A Model shifts SR by the delay elements and clips to its
// window.
type PatternRange struct {
	Pattern int
	FF      interval.Set
	SR      interval.Set
}

// FaultData aggregates the detection behaviour of one fault over the whole
// pattern set.
type FaultData struct {
	Fault fault.Fault
	// Per holds one entry per pattern that detects the fault anywhere in
	// [0, Clk], ordered by pattern index.
	Per []PatternRange
}

// testHookPanic, when non-nil, is called before every (fault, pattern)
// simulation inside the worker pool. Tests install a hook that panics for
// a chosen fault to prove the pool converts worker panics into errors
// instead of crashing the process. Always nil in production.
var testHookPanic func(f fault.Fault, pattern int)

// shardRange is a contiguous slice [Lo, Hi) of the fault list.
type shardRange struct{ lo, hi int }

// shardFaults splits the fault list into contiguous shards that never
// split one gate's faults apart: faults sharing an injection site share a
// fanout cone, so the worker that claims a shard evaluates closely related
// cones back to back with one warm scratch arena. Several shards per
// worker leave the dynamic dispatcher room to balance uneven cone sizes.
func shardFaults(faults []fault.Fault, workers int) []shardRange {
	if len(faults) == 0 {
		return nil
	}
	target := (len(faults) + workers*4 - 1) / (workers * 4)
	if target < 1 {
		target = 1
	}
	var out []shardRange
	lo := 0
	for i := 1; i < len(faults); i++ {
		if i-lo >= target && faults[i].Gate != faults[i-1].Gate {
			out = append(out, shardRange{lo, i})
			lo = i
		}
	}
	return append(out, shardRange{lo, len(faults)})
}

// Run simulates every fault under every pattern and returns the sparse
// detection data, ordered like the fault list.
//
// The driver works in pattern chunks: each chunk's fault-free baselines
// are computed once in parallel into pooled buffers, then the fault list —
// sharded by injection site so workers keep cone locality, each with one
// scratch arena for the whole run — is swept over the cached baselines
// with the event-driven simulator. Both phases fan out with par.Each.
// Faults whose fanout cone reaches no observation point are skipped
// outright (they cannot be detected); Config.SlowSim routes everything
// through the naive reference engine instead and disables that pruning.
//
// A panic in a worker is recovered and converted to a *fmerr.PanicError
// naming the fault and pattern being simulated; it fails the run, not the
// process. After a failure no new baseline or shard starts, the ones in
// flight finish, and the error of the lowest failing item is returned.
// Cancelling ctx stops the sweep and returns the context error wrapped
// with detect-stage attribution.
func Run(ctx context.Context, e *sim.Engine, placement *monitor.Placement, faults []fault.Fault,
	patterns []sim.Pattern, cfg Config) ([]FaultData, error) {

	store := cache.From(ctx)
	if store == nil {
		return run(ctx, e, placement, faults, patterns, cfg)
	}
	v, err := cache.Memo(ctx, store, cacheKey(e, placement, faults, patterns, cfg),
		func(ctx context.Context) (cached, error) {
			data, err := run(ctx, e, placement, faults, patterns, cfg)
			if err != nil {
				return cached{}, err
			}
			per := make([][]PatternRange, len(data))
			for i := range data {
				per[i] = data[i].Per
			}
			return cached{Per: per}, nil
		})
	if err != nil {
		return nil, err
	}
	if len(v.Per) != len(faults) {
		// Defensive: a decoded entry that does not line up with the
		// request is wrong by construction; recompute.
		return run(ctx, e, placement, faults, patterns, cfg)
	}
	out := make([]FaultData, len(faults))
	for i, f := range faults {
		out[i] = FaultData{Fault: f, Per: v.Per[i]}
	}
	return out, nil
}

// cached is the detect entry layout of the result cache: the sparse
// per-pattern ranges aligned with the request's fault list. The Fault
// identities themselves are reattached from the request at decode time, so
// entries never carry gate IDs and stay valid across any netlist ordering
// that hashes to the same key.
type cached struct {
	Per [][]PatternRange
}

// cacheKey fingerprints everything Run's output depends on: the canonical
// netlist, the full delay annotation and library timing, the monitored tap
// set, the exact fault list and pattern set, and the detection config.
// Worker count is excluded — results are bit-identical by contract for any
// parallelism — and so are the placement's delay elements, which only
// matter downstream of Run.
func cacheKey(e *sim.Engine, placement *monitor.Placement, faults []fault.Fault,
	patterns []sim.Pattern, cfg Config) cache.Key {

	c := e.C
	h := cache.NewHasher("detect")
	h.Str("circuit", cache.CircuitFingerprint(c))

	lib := e.A.Lib
	h.Str("lib", lib.Name)
	kinds := make([]int, 0, len(lib.Base))
	for k := range lib.Base {
		kinds = append(kinds, int(k))
	}
	sort.Ints(kinds)
	for _, k := range kinds {
		h.Time("lib.base."+circuit.Kind(k).String(), lib.Base[circuit.Kind(k)])
	}
	h.F64("lib.fallskew", lib.FallSkew)
	h.Time("lib.pinstep", lib.PinStep)
	h.Time("lib.loadstep", lib.LoadStep)
	h.Time("lib.clktoq", lib.ClkToQ)
	h.Time("lib.setup", lib.Setup)

	// Annotation in gate-name order so the component composes with the
	// order-invariant netlist fingerprint.
	order := make([]int, len(c.Gates))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		return c.Gates[order[i]].Name < c.Gates[order[j]].Name
	})
	for _, id := range order {
		h.Str("annot.gate", c.Gates[id].Name)
		for _, edge := range e.A.Delay[id] {
			h.Time("annot.rise", edge.Rise)
			h.Time("annot.fall", edge.Fall)
		}
	}

	for _, tap := range c.Taps() {
		h.Str("tap", tap.Name)
	}
	if placement != nil {
		h.Ints("placement.taps", placement.Taps)
	}

	h.Int("faults", int64(len(faults)))
	for _, f := range faults {
		h.Str("f.gate", c.Gates[f.Gate].Name)
		h.Int("f.pin", int64(f.Pin))
		h.Bool("f.rising", f.Rising)
	}
	h.Int("patterns", int64(len(patterns)))
	for _, p := range patterns {
		h.Bools("p.v1", p.V1)
		h.Bools("p.v2", p.V2)
	}

	h.Time("cfg.clk", cfg.Clk)
	h.Time("cfg.tmin", cfg.TMin)
	h.Time("cfg.delta", cfg.Delta)
	h.Time("cfg.glitch", cfg.Glitch)
	h.Bool("cfg.slowsim", cfg.SlowSim)
	return h.Key()
}

// tally counts one worker's share of a run's simulation work.
type tally struct {
	sims, hits, skipped, panics int64
	st                          sim.Stats
}

func (t *tally) add(o *tally) {
	t.sims += o.sims
	t.hits += o.hits
	t.skipped += o.skipped
	t.panics += o.panics
	t.st.Add(o.st)
}

// worker is the state one pool worker keeps for a whole run: its scratch
// arena, its range accumulators and its tallies. Only the goroutine that
// holds worker id w touches ws[w].
type worker struct {
	tally
	sc           *sim.Scratch
	ffAcc, srAcc interval.Accum
}

// run is the uncached body of Run.
func run(ctx context.Context, e *sim.Engine, placement *monitor.Placement, faults []fault.Fault,
	patterns []sim.Pattern, cfg Config) ([]FaultData, error) {

	workers := par.ClampWorkersFor(cfg.Workers, len(faults))
	horizon := cfg.Clk + 1

	// Telemetry: per-run tallies (rolled into the shared registry at the
	// end, so events/sec reflects this run, not the process lifetime).
	// busy sums the pool's call time; utilization is the busy fraction of
	// the pool's wall-clock capacity.
	start := time.Now()
	_, span := obs.StartSpan(ctx, "detect")
	rec := obs.From(ctx).Flight()
	ws := make([]worker, workers)
	var busy time.Duration
	defer func() {
		var t tally
		for i := range ws {
			t.add(&ws[i].tally)
		}
		o := obs.From(ctx)
		wall := time.Since(start)
		o.Counter("detect.sims").Add(t.sims)
		o.Counter("detect.detections").Add(t.hits)
		o.Counter("detect.panics_recovered").Add(t.panics)
		o.Counter("detect.cone_skipped_pairs").Add(t.skipped)
		o.Counter("detect.sim_events").Add(t.st.Events)
		o.Counter("detect.sim_converged").Add(t.st.Converged)
		o.Counter("detect.sim_early_exits").Add(t.st.EarlyExits)
		if s := wall.Seconds(); s > 0 {
			o.Gauge("detect.sims_per_sec").Set(float64(t.sims) / s)
		}
		if poolNs := int64(workers) * int64(wall); poolNs > 0 {
			o.Gauge("detect.worker_utilization").Set(float64(busy) / float64(poolNs))
		}
		span.End(
			slog.Int("faults", len(faults)),
			slog.Int("patterns", len(patterns)),
			slog.Int("workers", workers),
			slog.Bool("slowsim", cfg.SlowSim),
			slog.Int64("sims", t.sims),
			slog.Int64("detections", t.hits),
			slog.Int64("events", t.st.Events),
			slog.Int64("cone_skipped", t.skipped))
	}()
	// recovered turns a panic on worker w into a typed error naming the
	// work item, and journals it.
	recovered := func(w int, name, item string, r any) error {
		ws[w].panics++
		rec.Record(flight.Event{Kind: flight.KindPanic, Name: name, Stage: "detect",
			Detail: fmt.Sprintf("%s: %v", item, r), Value: int64(w)})
		return fmerr.NewPanic(fmerr.StageDetect, item, r)
	}

	// perFault[fi] is written only by the call that owns fi's shard, and
	// chunks run one after another, so the rows need no locking and come
	// out in ascending pattern order.
	perFault := make([][]PatternRange, len(faults))
	shards := shardFaults(faults, workers)

	// Chunk size bounds baseline-cache memory (chunk × gates waveforms)
	// while amortizing each baseline over every fault that sees it.
	chunk := workers * 4
	if chunk < 16 {
		chunk = 16
	}
	if chunk > 64 {
		chunk = 64
	}
	if chunk > len(patterns) {
		chunk = len(patterns)
	}
	baselines := make([]*sim.BaselineBuf, chunk)
	defer func() {
		for _, b := range baselines {
			if b != nil {
				e.ReleaseBaseline(b)
			}
		}
	}()

	for lo := 0; lo < len(patterns) && ctx.Err() == nil; lo += chunk {
		hi := min(lo+chunk, len(patterns))

		// Phase A: fault-free baselines for the chunk, in parallel, into
		// pooled buffers reused across chunks.
		b, err := par.Each(workers, hi-lo, func(w, k int) (err error) {
			defer func() {
				if r := recover(); r != nil {
					err = recovered(w, "detect.baseline", fmt.Sprintf("baseline for pattern %d", lo+k), r)
				}
			}()
			if err := chaos.Point(ctx, ptBaseline); err != nil {
				return fmerr.Wrap(fmerr.StageDetect, "baseline", err)
			}
			if baselines[k] == nil {
				baselines[k] = e.AcquireBaseline()
			}
			return e.BaselineInto(ctx, patterns[lo+k], baselines[k])
		})
		busy += b
		if err != nil {
			return nil, err
		}

		// Phase B: fault shards × chunk patterns over the cached
		// baselines.
		b, err = par.Each(workers, len(shards), func(w, si int) (err error) {
			wk := &ws[w]
			// curFault/curPat track the work item for panic attribution.
			curFault, curPat := -1, -1
			defer func() {
				if r := recover(); r != nil {
					item := fmt.Sprintf("pattern %d", curPat)
					if curFault >= 0 {
						item = fmt.Sprintf("fault %s under pattern %d",
							faults[curFault].Injection(cfg.Delta), curPat)
					}
					err = recovered(w, "detect.shard", item, r)
				}
			}()
			if err := chaos.Point(ctx, ptShard); err != nil {
				return fmerr.Wrap(fmerr.StageDetect, "shard", err)
			}
			if wk.sc == nil {
				wk.sc = e.NewScratch()
			}
			sc, ffAcc, srAcc := wk.sc, &wk.ffAcc, &wk.srAcc
			// The per-pair tallies stay local and reach the worker's
			// totals once per shard.
			var t tally
			defer wk.add(&t)
			for fi := shards[si].lo; fi < shards[si].hi; fi++ {
				f := faults[fi]
				curFault, curPat = fi, -1
				if !cfg.SlowSim && !e.C.ReachesTap(f.Gate) {
					t.skipped += int64(hi - lo)
					continue
				}
				inj := f.Injection(cfg.Delta)
				for pi := lo; pi < hi; pi++ {
					if t.sims&63 == 0 && ctx.Err() != nil {
						return fmerr.Wrap(fmerr.StageDetect, "run", ctx.Err())
					}
					curPat = pi
					if testHookPanic != nil {
						testHookPanic(f, pi)
					}
					t.sims++
					var dets []sim.Detection
					if cfg.SlowSim {
						dets = e.FaultSimNaive(baselines[pi-lo].W, inj, horizon)
					} else {
						dets = e.FaultSimScratch(baselines[pi-lo].W, inj, horizon, sc, &t.st)
					}
					if len(dets) == 0 {
						continue
					}
					ffAcc.Reset()
					srAcc.Reset()
					for _, d := range dets {
						diff := d.Diff.FilterShort(cfg.Glitch)
						if diff.Empty() {
							continue
						}
						ffAcc.Add(diff)
						if placement != nil && placement.Covers(d.Tap) {
							srAcc.Add(diff)
						}
					}
					if ffAcc.Empty() && srAcc.Empty() {
						continue
					}
					perFault[fi] = append(perFault[fi], PatternRange{Pattern: pi, FF: ffAcc.Copy(), SR: srAcc.Copy()})
					t.hits++
				}
			}
			return nil
		})
		busy += b
		if err != nil {
			return nil, err
		}
	}
	// No worker failed; a cancelled parent context still aborts the run.
	if err := ctx.Err(); err != nil {
		return nil, fmerr.Wrap(fmerr.StageDetect, "run", err)
	}

	out := make([]FaultData, len(faults))
	for fi, f := range faults {
		out[fi] = FaultData{Fault: f, Per: perFault[fi]}
	}
	return out, nil
}
