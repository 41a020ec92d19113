package atpg

import (
	"context"
	"log/slog"
	"math/bits"
	"math/rand"
	"sync/atomic"
	"time"

	"fastmon/internal/cache"
	"fastmon/internal/chaos"
	"fastmon/internal/circuit"
	"fastmon/internal/fault"
	"fastmon/internal/fmerr"
	"fastmon/internal/logic"
	"fastmon/internal/obs"
	"fastmon/internal/par"
	"fastmon/internal/sim"
)

// Chaos injection points at the phase boundaries of test generation,
// aligned with the cancellation polls, plus the ordered-commit boundary of
// the speculative deterministic phase (fired once per committed pattern,
// identically in serial and parallel runs).
var (
	ptRandom = chaos.Register("atpg.random", fmerr.StageATPG)
	ptPodem  = chaos.Register("atpg.podem", fmerr.StageATPG)
	ptCommit = chaos.Register("atpg.commit", fmerr.StageATPG)
)

// Config controls test generation.
type Config struct {
	// RandomBatches is the number of 64-pattern random blocks tried before
	// deterministic generation (four consecutive useless blocks also end
	// the phase early).
	RandomBatches int
	// MaxBacktracks bounds each PODEM/justification run.
	MaxBacktracks int
	// Seed drives random patterns and don't-care fill.
	Seed int64
	// Compact enables reverse-order static compaction.
	Compact bool
	// Workers bounds the speculative worker pool of the deterministic
	// PODEM phase, resolved by par.ClampWorkersFor (0 means every CPU).
	// The emitted pattern set is byte-identical at any worker count — the
	// single committer replays the serial fault order exactly — so Workers
	// is deliberately excluded from the cache key (§10 determinism
	// contract).
	Workers int
}

// DefaultConfig returns the configuration used by the experiment harness.
func DefaultConfig(seed int64) Config {
	return Config{RandomBatches: 48, MaxBacktracks: 600, Seed: seed, Compact: true}
}

// Stats summarizes one generation run. A search PODEM has not decided
// after a short backtrack prefix goes to a SAT prover (DESIGN.md §14):
// Untestable counts its UNSAT proofs with PODEM's own verdicts, Aborted
// only the faults whose search ran out of backtracks after SAT found the
// miter satisfiable, gave up at its conflict limit or skipped it as over
// budget, and Backtracks PODEM's decision flips alone.
type Stats struct {
	Faults         int // faults targeted
	Detected       int // faults with a test in the final set
	Untestable     int // proven untestable by PODEM or SAT (no pattern pair exists)
	Aborted        int // backtrack limit exceeded, SAT did not prove untestable
	RandomDetected int // faults covered by the random phase
	RawPatterns    int // patterns before compaction
	Patterns       int // final pattern count
	Backtracks     int // PODEM + justification decision flips (effort)
}

// Coverage returns detected / testable (the ATPG "test coverage" metric).
func (s Stats) Coverage() float64 {
	testable := s.Faults - s.Untestable
	if testable <= 0 {
		return 1
	}
	return float64(s.Detected) / float64(testable)
}

// Generate produces a compacted transition-fault test set for the given
// fault list. Faults are interpreted as transition faults at the
// small-delay fault sites (slow-to-rise/slow-to-fall polarity preserved).
//
// The context is polled between random batches and between deterministic
// PODEM targets; cancellation returns the patterns generated so far
// together with a stage-attributed error.
func Generate(ctx context.Context, c *circuit.Circuit, faults []fault.Fault, cfg Config) ([]sim.Pattern, Stats, error) {
	if cfg.RandomBatches == 0 && cfg.MaxBacktracks == 0 {
		w := cfg.Workers
		cfg = DefaultConfig(cfg.Seed)
		cfg.Workers = w
	}
	if store := cache.From(ctx); store != nil {
		v, err := cache.Memo(ctx, store, cacheKey(c, faults, cfg),
			func(ctx context.Context) (cached, error) {
				pats, st, err := generate(ctx, c, faults, cfg)
				return cached{Patterns: pats, Stats: st}, err
			})
		return v.Patterns, v.Stats, err
	}
	return generate(ctx, c, faults, cfg)
}

// cached is the atpg entry layout of the result cache.
type cached struct {
	Patterns []sim.Pattern
	Stats    Stats
}

// cacheKey fingerprints everything Generate's output depends on: the
// canonical netlist, the source ordering the pattern vectors are indexed
// by, the exact target fault list (by gate name, so the component composes
// with the order-invariant netlist fingerprint), and the generator config.
// Config.Workers is intentionally absent: the ordered-commit design makes
// the output independent of the worker count.
func cacheKey(c *circuit.Circuit, faults []fault.Fault, cfg Config) cache.Key {
	h := cache.NewHasher("atpg")
	h.Str("circuit", cache.CircuitFingerprint(c))
	for _, id := range c.Sources() {
		h.Str("src", c.Gates[id].Name)
	}
	h.Int("faults", int64(len(faults)))
	for _, f := range faults {
		h.Str("f.gate", c.Gates[f.Gate].Name)
		h.Int("f.pin", int64(f.Pin))
		h.Bool("f.rising", f.Rising)
	}
	h.Int("random_batches", int64(cfg.RandomBatches))
	h.Int("max_backtracks", int64(cfg.MaxBacktracks))
	h.Int("seed", cfg.Seed)
	h.Bool("compact", cfg.Compact)
	return h.Key()
}

// candidate is one speculatively produced deterministic-phase result: the
// full outcome of PODEM + justification + don't-care fill for one fault,
// computed by a worker without knowledge of patterns committed after it
// started. The committer either applies it (fault still undetected in
// serial order) or discards it as stale speculation.
type candidate struct {
	// skipped marks that the worker saw the fault's detection hint and
	// produced nothing. Hints are published only after the authoritative
	// detected[] update, so a skipped candidate always meets a detected
	// fault at commit time.
	skipped bool
	runRes  podemResult
	runBt   int
	jRes    podemResult // valid only when runRes == testFound
	jBt     int
	pat     sim.Pattern // valid only when runRes == jRes == testFound
	sat     satCounts
}

// satCounts tallies the SAT queries of one fault's searches, or of a
// run's committed faults.
type satCounts struct {
	calls      int // queries the solver decided or gave up on
	untestable int // queries that proved their search untestable
	overBudget int // searches whose miter was too large to ask
}

// proven counts one query and reports whether it proved its search
// untestable.
func (sc *satCounts) proven(v satResult) bool {
	if v == satOverBudget {
		sc.overBudget++
		return false
	}
	sc.calls++
	if v == satUnsat {
		sc.untestable++
		return true
	}
	return false
}

func (sc *satCounts) add(o satCounts) {
	sc.calls += o.calls
	sc.untestable += o.untestable
	sc.overBudget += o.overBudget
}

// solveFault runs one fault's searches: PODEM for the launch vector V2,
// then, when it finds one, the justification of the pre-transition site
// value for V1. Each search first runs satPrefix backtracks. One still
// undecided goes to the SAT prover: an UNSAT miter makes it untestable,
// and any other verdict resumes the same search up to maxBacktracks, so
// a search ends exactly as it would without SAT unless SAT proves it
// untestable. p is the calling worker's SAT arena. It returns the outcome
// and the machines holding V2 and V1; jm is nil when the launch search
// found no test. The caller releases them.
func solveFault(an *analysis, p *prover, f fault.Fault, maxBacktracks int) (cd candidate, m, jm *machine) {
	stuck := v0
	if !f.Rising {
		stuck = v1
	}
	prefix := min(satPrefix, maxBacktracks)
	m = newMachineWith(an, f, stuck)
	m.start()
	cd.runRes = m.search(prefix)
	if cd.runRes == aborted {
		if cd.sat.proven(p.launch(f, stuck)) {
			cd.runRes = untestable
		} else if prefix < maxBacktracks {
			cd.runRes = m.search(maxBacktracks)
		}
	}
	cd.runBt = m.backtracks
	if cd.runRes == testFound {
		// Justify V1 on a second machine while m still holds the V2
		// assignment.
		site := m.siteNet()
		jm = newMachineWith(an, fault.Fault{Gate: site, Pin: -1}, stuck.not())
		jm.begin()
		cd.jRes = jm.justify(site, stuck, prefix)
		if cd.jRes == aborted {
			if cd.sat.proven(p.justify(site, stuck)) {
				cd.jRes = untestable
			} else if prefix < maxBacktracks {
				cd.jRes = jm.justify(site, stuck, maxBacktracks)
			}
		}
		cd.jBt = jm.backtracks
	}
	return cd, m, jm
}

// produceCandidate runs the full per-fault deterministic pipeline:
// solveFault's searches, and per-fault-keyed don't-care fill. It is a
// pure function of (analysis, fault, index, config) — machines are pooled
// scratch, the prover is the worker's own scratch and every SAT query
// starts from a fresh solver state, and the fill stream is keyed on the
// fault index, never on shared mutable state — which is what makes
// speculative execution sound.
func produceCandidate(an *analysis, p *prover, f fault.Fault, fi int, cfg Config) candidate {
	cd, m, jm := solveFault(an, p, f, cfg.MaxBacktracks)
	if jm != nil {
		if cd.jRes == testFound {
			rng := newFillRNG(cfg.Seed, fi)
			cd.pat = sim.Pattern{V1: fill(jm.assign, &rng), V2: fill(m.assign, &rng)}
		}
		an.release(jm)
	}
	an.release(m)
	return cd
}

// generate is the uncached body of Generate.
func generate(ctx context.Context, c *circuit.Circuit, faults []fault.Fault, cfg Config) ([]sim.Pattern, Stats, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	nsrc := len(c.Sources())
	st := Stats{Faults: len(faults)}
	var discards, busyNs atomic.Int64
	var sat satCounts
	workers := par.ClampWorkersFor(cfg.Workers, len(faults))
	_, span := obs.StartSpan(ctx, "atpg")
	phaseStart := time.Now()
	defer func() {
		o := obs.From(ctx)
		o.Counter("atpg.patterns").Add(int64(st.Patterns))
		o.Counter("atpg.raw_patterns").Add(int64(st.RawPatterns))
		o.Counter("atpg.backtracks").Add(int64(st.Backtracks))
		o.Counter("atpg.aborted").Add(int64(st.Aborted))
		o.Counter("atpg.untestable").Add(int64(st.Untestable))
		o.Counter("atpg.random_detected").Add(int64(st.RandomDetected))
		o.Counter("atpg.speculative_discards").Add(discards.Load())
		o.Counter("atpg.sat_calls").Add(int64(sat.calls))
		o.Counter("atpg.sat_untestable").Add(int64(sat.untestable))
		o.Counter("atpg.sat_over_budget").Add(int64(sat.overBudget))
		if wall := time.Since(phaseStart); wall > 0 && workers > 0 {
			o.Gauge("atpg.worker_utilization").Set(
				float64(busyNs.Load()) / float64(int64(wall)*int64(workers)))
		}
		span.End(
			slog.Int("faults", st.Faults),
			slog.Int("patterns", st.Patterns),
			slog.Int("backtracks", st.Backtracks),
			slog.Int("aborted", st.Aborted),
			slog.Int("workers", workers),
			slog.Int64("speculative_discards", discards.Load()))
	}()

	detected := make([]bool, len(faults))
	var patterns []sim.Pattern

	// dropPass removes faults detected by patterns[from:] from the
	// remaining set, reusing one Batch's packed-vector scratch across
	// 64-pattern chunks. publish, when non-nil, mirrors fresh detections
	// into the lock-free hint array read by speculative workers.
	var db logic.Batch
	var publish func(fi int)
	dropPass := func(from int) {
		for start := from; start < len(patterns); start += 64 {
			db.Load(c, patterns, start)
			for fi := range faults {
				if detected[fi] {
					continue
				}
				if db.DetectTransition(faults[fi]) != 0 {
					detected[fi] = true
					if publish != nil {
						publish(fi)
					}
				}
			}
		}
	}

	// Random phase. The 64-pattern block buffers are reused across batches;
	// only the (rare) patterns promoted into the output set get fresh
	// backing arrays.
	blk := make([]sim.Pattern, 64)
	for i := range blk {
		blk[i] = sim.Pattern{V1: make([]bool, nsrc), V2: make([]bool, nsrc)}
	}
	misses := 0
	for batch := 0; batch < cfg.RandomBatches && misses < 4; batch++ {
		if err := ctx.Err(); err != nil {
			return patterns, st, fmerr.Wrap(fmerr.StageATPG, "random-phase", err)
		}
		if err := chaos.Point(ctx, ptRandom); err != nil {
			return patterns, st, fmerr.Wrap(fmerr.StageATPG, "random-phase", err)
		}
		for i := range blk {
			for j := 0; j < nsrc; j++ {
				blk[i].V1[j] = rng.Intn(2) == 1
				blk[i].V2[j] = rng.Intn(2) == 1
			}
		}
		db.Load(c, blk, 0)
		useful := make(map[int][]int) // pattern index -> fault indices
		for fi := range faults {
			if detected[fi] {
				continue
			}
			det := db.DetectTransition(faults[fi])
			if det == 0 {
				continue
			}
			k := bits.TrailingZeros64(det)
			useful[k] = append(useful[k], fi)
		}
		if len(useful) == 0 {
			misses++
			continue
		}
		misses = 0
		for k := 0; k < 64; k++ {
			fis, ok := useful[k]
			if !ok {
				continue
			}
			patterns = append(patterns, blk[k])
			blk[k] = sim.Pattern{V1: make([]bool, nsrc), V2: make([]bool, nsrc)}
			for _, fi := range fis {
				detected[fi] = true
				st.RandomDetected++
			}
		}
	}

	// Deterministic phase: speculative PODEM with ordered commit. Workers
	// produce candidates concurrently against the shared immutable
	// analysis; the single committer below replays the serial loop
	// verbatim — skip-if-detected, stats accrual, pattern append and the
	// 32-pattern drop-pass cadence — in strict fault-index order, so the
	// output is byte-identical at any worker count. Speculation produced
	// for faults that a later-committed pattern already covers is simply
	// discarded (counted in atpg.speculative_discards).
	an := newAnalysis(c)
	provers := make([]prover, workers)
	for id := range provers {
		provers[id].analysis = an
	}
	hints := make([]atomic.Bool, len(faults))
	for fi, d := range detected {
		if d {
			hints[fi].Store(true)
		}
	}
	publish = func(fi int) { hints[fi].Store(true) }
	lastDrop := len(patterns)
	var phaseErr error
	window := workers * 32
	if window < 64 {
		window = 64
	}
	par.OrderedCommit(workers, len(faults), window,
		func(id, fi int) candidate {
			t0 := time.Now()
			defer func() { busyNs.Add(int64(time.Since(t0))) }()
			if hints[fi].Load() {
				// Already covered by committed patterns: skip the PODEM run.
				// The hint lags the authoritative detected[] array, never
				// leads it, so the committer's own check stays decisive.
				return candidate{skipped: true}
			}
			return produceCandidate(an, &provers[id], faults[fi], fi, cfg)
		},
		func(fi int, cd candidate) bool {
			if fi&63 == 0 {
				if err := ctx.Err(); err != nil {
					phaseErr = fmerr.Wrap(fmerr.StageATPG, "deterministic-phase", err)
					return false
				}
				if err := chaos.Point(ctx, ptPodem); err != nil {
					phaseErr = fmerr.Wrap(fmerr.StageATPG, "deterministic-phase", err)
					return false
				}
			}
			if detected[fi] {
				if !cd.skipped {
					discards.Add(1)
				}
				return true
			}
			if cd.skipped {
				// Unreachable under the hint invariant; regenerate inline
				// rather than corrupt the output if it is ever violated.
				cd = produceCandidate(an, &prover{analysis: an}, faults[fi], fi, cfg)
			}
			st.Backtracks += cd.runBt
			sat.add(cd.sat)
			switch cd.runRes {
			case untestable:
				st.Untestable++
				return true
			case aborted:
				st.Aborted++
				return true
			}
			st.Backtracks += cd.jBt
			switch cd.jRes {
			case untestable:
				// The site cannot take the pre-transition value at all: the
				// transition fault is untestable.
				st.Untestable++
				return true
			case aborted:
				st.Aborted++
				return true
			}
			if err := chaos.Point(ctx, ptCommit); err != nil {
				phaseErr = fmerr.Wrap(fmerr.StageATPG, "commit", err)
				return false
			}
			patterns = append(patterns, cd.pat)
			detected[fi] = true
			hints[fi].Store(true)
			if len(patterns)-lastDrop >= 32 {
				dropPass(lastDrop)
				lastDrop = len(patterns)
			}
			return true
		})
	if phaseErr != nil {
		return patterns, st, phaseErr
	}
	dropPass(lastDrop)

	st.RawPatterns = len(patterns)
	if cfg.Compact {
		patterns = compact(c, patterns, faults, detected)
	}
	st.Patterns = len(patterns)
	for _, d := range detected {
		if d {
			st.Detected++
		}
	}
	return patterns, st, nil
}

// compact performs reverse-order static compaction: patterns are
// re-simulated newest-first and a pattern is kept only if it is the first
// (in reverse order) to detect some fault. Coverage is preserved exactly.
func compact(c *circuit.Circuit, patterns []sim.Pattern, faults []fault.Fault, detected []bool) []sim.Pattern {
	if len(patterns) == 0 {
		return patterns
	}
	rev := make([]sim.Pattern, len(patterns))
	for i, p := range patterns {
		rev[len(patterns)-1-i] = p
	}
	keepRev := make([]bool, len(rev))
	remaining := make([]bool, len(faults))
	nRemaining := 0
	for fi := range faults {
		if detected[fi] {
			remaining[fi] = true
			nRemaining++
		}
	}
	var b logic.Batch
	for start := 0; start < len(rev) && nRemaining > 0; start += 64 {
		b.Load(c, rev, start)
		for fi := range faults {
			if !remaining[fi] {
				continue
			}
			det := b.DetectTransition(faults[fi])
			if det == 0 {
				continue
			}
			k := bits.TrailingZeros64(det)
			keepRev[start+k] = true
			remaining[fi] = false
			nRemaining--
		}
	}
	var out []sim.Pattern
	for i := len(rev) - 1; i >= 0; i-- {
		if keepRev[i] {
			out = append(out, rev[i])
		}
	}
	return out
}
