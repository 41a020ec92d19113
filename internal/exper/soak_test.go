package exper

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"fastmon/internal/cache"
	"fastmon/internal/chaos"
	"fastmon/internal/fmerr"
	"fastmon/internal/obs"
	"fastmon/internal/obs/flight"
)

// The chaos soak: run the Fig.-4 pipeline end to end under randomized
// deterministic fault injection across many seeds and assert the
// invariant — every run ends in clean success, a typed fmerr error with
// correct stage attribution, or a valid resumable partial; never a hang,
// an unrecovered panic, a corrupt cache entry served on resume, or a
// silently wrong table.
//
//	go test -run TestChaosSoak ./internal/exper -soak.seeds=100
//	go test -run TestChaosSoak ./internal/exper -soak.seeds=8 -race
//
// Failing seeds replay deterministically: rerun with -soak.first=SEED
// -soak.seeds=1.
var (
	soakSeeds     = flag.Int("soak.seeds", 8, "number of chaos soak seeds")
	soakFirst     = flag.Int64("soak.first", 0, "first soak seed (replay a failing seed with -soak.seeds=1)")
	soakRate      = flag.Float64("soak.rate", 0.02, "per-point injection probability")
	soakReport    = flag.String("soak.report", "", "append failing seeds to this file for artifact upload")
	soakFlightDir = flag.String("soak.flightdir", "", "write per-seed flight-recorder dumps here on failure")
)

// soakCfg keeps one seed cheap enough for hundred-seed sweeps while
// still crossing every stage boundary. The generous solver budget means
// injected delays can never degrade a solve from exact to incumbent, so
// completed tables must be bit-identical to the reference.
func soakCfg() SuiteConfig {
	return SuiteConfig{
		Scale: 0.05, MaxFaults: 600, Names: []string{"s9234"},
		SolverBudget: 60 * time.Second, Workers: 2,
	}
}

func soakReq() TableRequest {
	return TableRequest{T1: true, T2: true, T3: true, Fig3Steps: 3}
}

// tableFingerprint reduces suite results to their semantic payload —
// the table rows and sweep points, in order — dropping timing, solver
// effort, and degradation bookkeeping that legitimately vary run to
// run. Two runs agree iff their fingerprints are byte-equal.
func tableFingerprint(t *testing.T, results []*CircuitResult) string {
	t.Helper()
	type sem struct {
		Name string      `json:"name"`
		T1   *T1Row      `json:"t1"`
		T2   *T2Row      `json:"t2"`
		T3   *T3Row      `json:"t3"`
		Fig3 []Fig3Point `json:"fig3"`
	}
	out := make([]sem, len(results))
	for i, r := range results {
		out[i] = sem{Name: r.Name, T1: r.T1, T2: r.T2, T3: r.T3, Fig3: r.Fig3}
	}
	data, err := json.Marshal(out)
	if err != nil {
		t.Fatalf("fingerprint: %v", err)
	}
	return string(data)
}

// soakProfile returns the injector configuration for a seed. Even seeds
// run a "disruption" profile — delays plus torn/bit-flipped writes,
// which the durable-I/O layer must absorb, so the run completes and its
// tables must match the reference bit for bit. Odd seeds run the full
// fault menu (errors, panics, delays, and write corruption) and may
// fail, but only in the sanctioned ways.
func soakProfile(seed int64, rate float64) chaos.Config {
	cfg := chaos.Config{Seed: seed, Rate: rate}
	if seed%2 == 0 {
		cfg.Kinds = []chaos.Kind{chaos.KindDelay}
	}
	return cfg
}

type soakOutcome struct {
	results []*CircuitResult
	err     error
}

func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short mode")
	}
	cfg, req := soakCfg(), soakReq()

	// Reference: one uninjected run establishes the ground-truth tables
	// every completing chaos run must reproduce exactly.
	refStart := time.Now()
	ref, err := RunSuite(context.Background(), cfg, req, nil, nil)
	if err != nil {
		t.Fatalf("reference run failed: %v", err)
	}
	refElapsed := time.Since(refStart)
	want := tableFingerprint(t, ref)
	// Hang detection: a chaos run only adds bounded injected delays, so
	// anything beyond a generous multiple of the reference is a hang.
	watchdog := 20*refElapsed + time.Minute

	var (
		mu           sync.Mutex
		failing      []int64
		injected     int64
		cacheTraffic int64 // hits+misses across all seeds
		cacheCorrupt int64
	)
	t.Cleanup(func() {
		if *soakReport == "" || len(failing) == 0 {
			return
		}
		var sb strings.Builder
		for _, s := range failing {
			fmt.Fprintf(&sb, "%d\n", s)
		}
		f, err := os.OpenFile(*soakReport, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			t.Errorf("soak report: %v", err)
			return
		}
		defer f.Close()
		if _, err := f.WriteString(sb.String()); err != nil {
			t.Errorf("soak report: %v", err)
		}
	})

	for i := 0; i < *soakSeeds; i++ {
		seed := *soakFirst + int64(i)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			// Each seed gets its own flight recorder; a failing seed dumps
			// its event journal for artifact upload (-soak.flightdir).
			rec := flight.New(flight.DefaultCapacity)
			if *soakFlightDir != "" {
				if err := os.MkdirAll(*soakFlightDir, 0o755); err != nil {
					t.Fatalf("flight dir: %v", err)
				}
				rec.DumpPath = filepath.Join(*soakFlightDir, fmt.Sprintf("seed-%d.jsonl", seed))
			}
			fail := func(format string, args ...any) {
				mu.Lock()
				failing = append(failing, seed)
				mu.Unlock()
				if path, derr := rec.AutoDump("soak failure"); derr != nil {
					t.Logf("flight dump failed: %v", derr)
				} else if path != "" {
					t.Logf("flight dump: %s", path)
				}
				t.Errorf(format, args...)
			}
			in := chaos.New(soakProfile(seed, *soakRate))
			o := obs.New(nil)
			o.AttachFlight(rec)
			cctx := chaos.With(obs.With(context.Background(), o), in)
			// A result cache rides along so the cache.read/cache.write
			// injection points see the same fault menu as everything else.
			// Corrupt entries must degrade to misses, never skew tables.
			cdir := t.TempDir()
			cstore, cerr := cache.Open(cdir, 0)
			if cerr != nil {
				t.Fatalf("cache dir: %v", cerr)
			}
			cctx = cache.With(cctx, cstore)

			done := make(chan soakOutcome, 1)
			go func() {
				res, err := RunSuite(cctx, cfg, req, nil, nil)
				done <- soakOutcome{results: res, err: err}
			}()
			var out soakOutcome
			select {
			case out = <-done:
			case <-time.After(watchdog):
				fail("HANG: run did not finish within %v (reference took %v)", watchdog, refElapsed)
				return
			}
			cr := cstore.Report()
			mu.Lock()
			injected += in.Fired()
			cacheTraffic += cr.Hits + cr.Misses
			cacheCorrupt += cr.Corrupt
			mu.Unlock()

			// Invariant 1: clean success or a typed, stage-attributed
			// error. An untyped error means some path lost attribution; a
			// panic escaping RunSuite would have crashed the test process
			// outright.
			if out.err != nil {
				if stage := fmerr.StageOf(out.err); stage == "" {
					fail("untyped error escaped the pipeline: %v", out.err)
					return
				}
			} else if got := tableFingerprint(t, out.results); got != want {
				// Invariant 2: a completing injected run is bit-identical
				// to the uninjected reference — chaos may slow or kill a
				// run, never silently skew it.
				fail("injected run completed with wrong tables\n got: %s\nwant: %s", got, want)
				return
			}

			// Invariant 3: whatever state the chaos run left behind —
			// complete, partial, torn, or bit-flipped cache entries — a
			// chaos-free resume over the same cache directory must
			// converge to the reference tables. Corrupt entries must be
			// recomputed, never served.
			rstore, rserr := cache.Open(cdir, 0)
			if rserr != nil {
				t.Fatalf("cache reopen: %v", rserr)
			}
			rctx := cache.With(context.Background(), rstore)
			resumed, rerr := RunSuite(rctx, cfg, req, nil, nil)
			if rerr != nil {
				fail("resume after chaos failed: %v", rerr)
				return
			}
			if got := tableFingerprint(t, resumed); got != want {
				fail("resume after chaos produced wrong tables\n got: %s\nwant: %s", got, want)
				return
			}
			rr := rstore.Report()
			mu.Lock()
			cacheTraffic += rr.Hits + rr.Misses
			cacheCorrupt += rr.Corrupt
			mu.Unlock()
			// Durability hygiene: no stray temp files survive any path.
			ents, _ := os.ReadDir(cdir)
			for _, e := range ents {
				if strings.Contains(e.Name(), ".tmp") {
					fail("stray temp file %s left in cache dir", e.Name())
				}
			}
		})
	}

	t.Cleanup(func() {
		if len(failing) == 0 && injected == 0 && *soakSeeds > 0 {
			t.Errorf("soak injected zero faults across %d seeds — chaos points are not armed", *soakSeeds)
		}
		if len(failing) == 0 && cacheTraffic == 0 && *soakSeeds > 0 {
			t.Errorf("soak saw zero cache traffic across %d seeds — cache points are not wired", *soakSeeds)
		}
		t.Logf("cache: %d lookups, %d corrupt entries degraded to misses", cacheTraffic, cacheCorrupt)
	})
}

// TestChaosSoakReplay: the same seed injects the same fault multiset —
// the property that makes a failing soak seed reproducible from its
// number alone.
func TestChaosSoakReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short mode")
	}
	cfg, req := soakCfg(), soakReq()
	run := func() (map[string]int64, error) {
		in := chaos.New(chaos.Config{Seed: 7, Rate: 0.05})
		ctx := chaos.With(context.Background(), in)
		_, err := RunSuite(ctx, cfg, req, nil, nil)
		return in.Snapshot(), err
	}
	snapA, errA := run()
	snapB, errB := run()
	if (errA == nil) != (errB == nil) {
		t.Fatalf("same seed diverged: %v vs %v", errA, errB)
	}
	if fmt.Sprint(snapA) != fmt.Sprint(snapB) {
		t.Fatalf("same seed fired different faults:\n a: %v\n b: %v", snapA, snapB)
	}
}

// TestInjectedPanicDumpsFlight pins the post-mortem contract: a chaos
// panic injected at the exper.circuit dispatch point is recovered into a
// typed *fmerr.PanicError AND leaves a readable JSONL flight dump whose
// panic event names the stage and the injection point that fired.
func TestInjectedPanicDumpsFlight(t *testing.T) {
	dump := filepath.Join(t.TempDir(), "flight.jsonl")
	rec := flight.New(1024)
	rec.DumpPath = dump
	o := obs.New(nil)
	o.AttachFlight(rec)
	ctx := obs.With(context.Background(), o)
	in := chaos.New(chaos.Config{
		Seed:  1,
		Rates: map[string]float64{"exper.circuit": 1}, // only the dispatch point fires
		Kinds: []chaos.Kind{chaos.KindPanic},
	})
	ctx = chaos.With(ctx, in)

	_, err := RunSuite(ctx, smallCfg(), TableRequest{T1: true}, nil, nil)
	var pe *fmerr.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("injected panic did not surface as *fmerr.PanicError: %v", err)
	}
	if pe.Stage != fmerr.StageExper {
		t.Fatalf("panic attributed to stage %q, want exper", pe.Stage)
	}

	data, rerr := os.ReadFile(dump)
	if rerr != nil {
		t.Fatalf("no flight dump written: %v", rerr)
	}
	var panicEv *flight.Event
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var ev flight.Event
		if jerr := json.Unmarshal([]byte(line), &ev); jerr != nil {
			t.Fatalf("dump line is not valid JSON: %q: %v", line, jerr)
		}
		if ev.Kind == flight.KindPanic {
			panicEv = &ev
		}
	}
	if panicEv == nil {
		t.Fatalf("dump holds no panic event:\n%s", data)
	}
	if panicEv.Stage != "exper" {
		t.Errorf("panic event stage = %q, want exper", panicEv.Stage)
	}
	if !strings.Contains(panicEv.Detail, "exper.circuit") {
		t.Errorf("panic event does not name the chaos point: %q", panicEv.Detail)
	}
}
