package exper

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"fastmon/internal/cache"
)

// benchSuiteCfg is the workload for the cache benchmark: the full
// Table I-III pipeline on one paper circuit, the same path tablegen runs.
func benchSuiteCfg() SuiteConfig {
	return SuiteConfig{
		Names: []string{"s9234"}, Scale: 0.05, MaxFaults: 600,
		SolverBudget: 10 * time.Second,
	}
}

// benchSuiteOnce runs the suite pipeline once against the given store.
func benchSuiteOnce(b *testing.B, store *cache.Store) {
	b.Helper()
	ctx := cache.With(context.Background(), store)
	cfg := benchSuiteCfg()
	specs, err := cfg.Select()
	if err != nil {
		b.Fatal(err)
	}
	for _, spec := range specs {
		r, err := RunCircuit(ctx, spec, cfg)
		if err != nil {
			b.Fatal(err)
		}
		TableI(r)
		if _, _, err := TableII(ctx, r); err != nil {
			b.Fatal(err)
		}
		if _, _, err := TableIII(ctx, r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSuiteWarm measures the result cache: /cold computes every stage
// into a fresh cache, /warm replays the identical run against a primed one.
// benchjson pairs the two into the "SuiteWarm" speedup in BENCH_cache.json.
func BenchmarkSuiteWarm(b *testing.B) {
	b.Run("cold", func(b *testing.B) {
		root := b.TempDir()
		for i := 0; i < b.N; i++ {
			store, err := cache.Open(filepath.Join(root, fmt.Sprint(i)), 0)
			if err != nil {
				b.Fatal(err)
			}
			benchSuiteOnce(b, store)
		}
	})
	b.Run("warm", func(b *testing.B) {
		store, err := cache.Open(b.TempDir(), 0)
		if err != nil {
			b.Fatal(err)
		}
		benchSuiteOnce(b, store) // prime
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchSuiteOnce(b, store)
		}
		b.StopTimer()
		if r := store.Report(); r.Hits == 0 {
			b.Fatal("warm benchmark never hit the cache")
		}
	})
}
