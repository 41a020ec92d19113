// Package cli is the runtime the fastmon commands share: the flags for
// logging, the result cache and profiling, and the start-up and
// shut-down they drive. A command registers Flags next to its own flags,
// calls Start before its work and Close after it.
package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"

	"fastmon/internal/cache"
	"fastmon/internal/obs"
	"fastmon/internal/obs/flight"
)

// Flags are the runtime flags every command registers.
type Flags struct {
	Verbose  bool   // -v: debug-level logs (per-stage spans)
	JSONLogs bool   // -json-logs: logs as JSON lines
	CacheDir string // -cache.dir: result-cache directory ("" disables)
	CacheMax int64  // -cache.max: result-cache byte budget (<= 0 unlimited)

	// Profile output paths ("" disables each).
	CPUProfile, MemProfile, Trace string
}

// Register defines the runtime flags on fs.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.BoolVar(&f.Verbose, "v", false, "verbose: log per-stage spans and telemetry to stderr (fastmon also prints per-period schedule details)")
	fs.BoolVar(&f.JSONLogs, "json-logs", false, "emit logs as JSON lines on stderr (machine-readable)")
	fs.StringVar(&f.CacheDir, "cache.dir", "", "content-addressed result-cache directory; re-runs reuse matching stage results (empty disables)")
	fs.Int64Var(&f.CacheMax, "cache.max", 512<<20, "result-cache size budget in bytes; least-recently-used entries are evicted (<= 0 = unlimited)")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a heap profile to this file on exit")
	fs.StringVar(&f.Trace, "trace", "", "write a runtime execution trace to this file")
}

// Env is a started runtime; Close ends it.
type Env struct {
	Observer *obs.Observer // spans and metrics, logging through the flags' logger

	log      io.Writer
	store    *cache.Store
	stopProf func() error
}

// Start brings the runtime up in this order: the profilers; the logger
// (text at warning level, debug level under -v, JSON under -json-logs)
// and the observer, with the flight recorder rec (nil for none) attached;
// the result cache. The returned context carries the observer and the
// cache. The logs and the runtime's "# ..." status lines go to log. On
// error nothing is left running.
func (f Flags) Start(ctx context.Context, log io.Writer, rec *flight.Recorder) (context.Context, *Env, error) {
	stopProf, err := startProfiles(f.CPUProfile, f.MemProfile, f.Trace)
	if err != nil {
		return ctx, nil, err
	}
	level := slog.LevelWarn
	if f.Verbose {
		level = slog.LevelDebug
	}
	ho := &slog.HandlerOptions{Level: level}
	var h slog.Handler = slog.NewTextHandler(log, ho)
	if f.JSONLogs {
		h = slog.NewJSONHandler(log, ho)
	}
	e := &Env{Observer: obs.New(slog.New(h)), log: log, stopProf: stopProf}
	e.Observer.AttachFlight(rec)
	ctx = obs.With(ctx, e.Observer)

	if f.CacheDir != "" {
		if e.store, err = cache.Open(f.CacheDir, f.CacheMax); err != nil {
			stopProf() //nolint:errcheck // the open error is the one to report
			return ctx, nil, err
		}
		ctx = cache.With(ctx, e.store)
		fmt.Fprintf(log, "# cache: %s (%d entries, %d bytes)\n", f.CacheDir, e.store.Len(), e.store.Bytes())
	}
	return ctx, e, nil
}

// Close prints the result cache's traffic summary and flushes the
// profiles, returning the first profile error.
func (e *Env) Close() error {
	if r := e.store.Report(); r != nil {
		fmt.Fprintf(e.log, "# cache: %d hits, %d misses, %d evictions, %d corrupt (%d entries, %d bytes)\n",
			r.Hits, r.Misses, r.Evictions, r.Corrupt, r.Entries, r.Bytes)
	}
	return e.stopProf()
}
