// Package cli is the runtime the fastmon commands share: the flags for
// logging, the result cache, the run manifest, the flight recorder and
// profiling, and the start-up and shut-down they drive. A command
// registers Flags next to its own flags, calls Start before its work and
// Close after it.
package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"syscall"

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
	Manifest string // -manifest: run manifest path ("" disables)
	Flight   string // -flight: flight-recorder dump path ("" disables the recorder)

	// Profile output paths ("" disables each).
	CPUProfile, MemProfile, Trace string
}

// Register defines the runtime flags on fs.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.BoolVar(&f.Verbose, "v", false, "verbose: log per-stage spans and telemetry to stderr (fastmon also prints per-period schedule details)")
	fs.BoolVar(&f.JSONLogs, "json-logs", false, "emit logs as JSON lines on stderr (machine-readable)")
	fs.StringVar(&f.CacheDir, "cache.dir", "", "content-addressed result-cache directory; re-runs reuse matching stage results (empty disables)")
	fs.Int64Var(&f.CacheMax, "cache.max", 512<<20, "result-cache size budget in bytes; least-recently-used entries are evicted (<= 0 = unlimited)")
	fs.StringVar(&f.Manifest, "manifest", "run.json", "write the run manifest here (empty disables)")
	fs.StringVar(&f.Flight, "flight", "flight.jsonl", "flight-recorder dump path, written on panics/failures/SIGQUIT (empty disables the recorder)")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a heap profile to this file on exit")
	fs.StringVar(&f.Trace, "trace", "", "write a runtime execution trace to this file")
}

// Env is a started runtime; Close ends it.
type Env struct {
	Observer *obs.Observer // spans and metrics, logging through the flags' logger

	log      io.Writer
	store    *cache.Store
	man      *obs.Manifest // nil without -manifest
	manPath  string
	quit     chan os.Signal // SIGQUIT, nil without a recorder
	quitDone chan struct{}  // closed when the SIGQUIT handler has returned
	stopProf func() error
}

// Start brings the runtime up in this order: the profilers; the logger
// (text at warning level, debug level under -v, JSON under -json-logs)
// and the observer, with a flight recorder attached under -flight; the
// result cache; the SIGQUIT handler, which dumps the recorder without
// stopping the run and is installed only when a recorder exists; and the
// manifest of the run of tool under config. The returned context carries
// the observer and the cache. The logs and the runtime's "# ..." status
// lines go to log. On error nothing is left running.
func (f Flags) Start(ctx context.Context, log io.Writer, tool string, config any) (context.Context, *Env, error) {
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
	if f.Flight != "" {
		rec := flight.New(flight.DefaultCapacity)
		rec.DumpPath = f.Flight
		e.Observer.AttachFlight(rec)
	}
	ctx = obs.With(ctx, e.Observer)

	if f.CacheDir != "" {
		if e.store, err = cache.Open(f.CacheDir, f.CacheMax); err != nil {
			stopProf() //nolint:errcheck // the open error is the one to report
			return ctx, nil, err
		}
		ctx = cache.With(ctx, e.store)
		fmt.Fprintf(log, "# cache: %s (%d entries, %d bytes)\n", f.CacheDir, e.store.Len(), e.store.Bytes())
	}
	if e.Observer.Flight() != nil {
		// Without a recorder SIGQUIT keeps Go's default: a goroutine
		// dump and exit status 2.
		e.quit, e.quitDone = make(chan os.Signal, 1), make(chan struct{})
		signal.Notify(e.quit, syscall.SIGQUIT)
		go func() {
			defer close(e.quitDone)
			for range e.quit {
				e.dump("SIGQUIT")
			}
		}()
	}
	if f.Manifest != "" {
		e.man, e.manPath = obs.NewManifest(tool, config), f.Manifest
	}
	return ctx, e, nil
}

// dump writes the flight recorder's ring to its dump path and reports
// the outcome; it does nothing without a recorder.
func (e *Env) dump(reason string) {
	path, err := e.Observer.Flight().AutoDump(reason)
	switch {
	case err != nil:
		fmt.Fprintf(e.log, "# flight: dump failed: %v\n", err)
	case path != "":
		fmt.Fprintf(e.log, "# flight: dumped %s\n", path)
	}
}

// Close ends the runtime in this order: it dumps the flight recorder
// when runErr is non-nil; writes the manifest with circuits as its
// per-circuit payload, on a fresh context so a cancelled run still
// leaves it; prints the result cache's traffic summary; flushes the
// profiles; and gives SIGQUIT back its default. It returns the first
// profile error. A manifest that cannot be written is reported on the
// log and does not fail the run.
func (e *Env) Close(circuits any, runErr error) error {
	if runErr != nil {
		e.dump("run error: " + runErr.Error())
	}
	r := e.store.Report() // nil without -cache.dir
	if e.man != nil {
		e.man.Circuits, e.man.Cache = circuits, r
		e.man.Finish(e.Observer)
		if err := e.man.WriteFile(context.Background(), e.manPath); err != nil {
			fmt.Fprintf(e.log, "# manifest: %v\n", err)
		} else {
			fmt.Fprintf(e.log, "# wrote manifest %s\n", e.manPath)
		}
	}
	if r != nil {
		fmt.Fprintf(e.log, "# cache: %d hits, %d misses, %d evictions, %d corrupt (%d entries, %d bytes)\n",
			r.Hits, r.Misses, r.Evictions, r.Corrupt, r.Entries, r.Bytes)
	}
	err := e.stopProf()
	if e.quit != nil {
		signal.Stop(e.quit)
		close(e.quit)
		<-e.quitDone
	}
	return err
}
