package cli

import (
	"context"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fastmon/internal/cache"
	"fastmon/internal/obs"
	"fastmon/internal/obs/flight"
)

// TestRegisterDefinesRuntimeFlags pins the runtime flag surface: exactly
// these seven flags, with these defaults.
func TestRegisterDefinesRuntimeFlags(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	var f Flags
	f.Register(fs)
	want := map[string]string{
		"v": "false", "json-logs": "false",
		"cache.dir": "", "cache.max": "536870912",
		"cpuprofile": "", "memprofile": "", "trace": "",
	}
	got := map[string]string{}
	fs.VisitAll(func(fl *flag.Flag) { got[fl.Name] = fl.DefValue })
	if len(got) != len(want) {
		t.Fatalf("flags = %v, want %v", got, want)
	}
	for name, def := range want {
		if d, ok := got[name]; !ok || d != def {
			t.Errorf("-%s default = %q (defined %v), want %q", name, d, ok, def)
		}
	}
	if err := fs.Parse([]string{"-v", "-cache.dir", "d", "-cache.max", "7"}); err != nil {
		t.Fatal(err)
	}
	if !f.Verbose || f.CacheDir != "d" || f.CacheMax != 7 {
		t.Fatalf("parsed flags = %+v", f)
	}
}

// TestStartAttachesCacheAndReportsIt: -cache.dir puts the store on the
// context, the given flight recorder rides the observer, and Close
// prints the traffic summary.
func TestStartAttachesCacheAndReportsIt(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	rec := flight.New(16)
	var log strings.Builder
	ctx, env, err := Flags{CacheDir: dir}.Start(context.Background(), &log, rec)
	if err != nil {
		t.Fatal(err)
	}
	if cache.From(ctx) == nil {
		t.Fatal("no cache on the context")
	}
	if obs.From(ctx) != env.Observer || env.Observer == nil {
		t.Fatal("observer not on the context")
	}
	if env.Observer.Flight() != rec {
		t.Fatal("the given flight recorder is not attached to the observer")
	}
	if err := env.Close(); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"# cache: " + dir + " (0 entries, 0 bytes)",
		"# cache: 0 hits, 0 misses, 0 evictions, 0 corrupt (0 entries, 0 bytes)",
	}
	if got := strings.Split(strings.TrimSpace(log.String()), "\n"); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("log = %q, want %q", got, want)
	}
}

// TestCloseFlushesProfiles: each profile path holds a non-empty file
// once the runtime is closed.
func TestCloseFlushesProfiles(t *testing.T) {
	dir := t.TempDir()
	f := Flags{
		CPUProfile: filepath.Join(dir, "cpu.prof"),
		MemProfile: filepath.Join(dir, "mem.prof"),
		Trace:      filepath.Join(dir, "trace.out"),
	}
	_, env, err := f.Start(context.Background(), io.Discard, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := env.Close(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{f.CPUProfile, f.MemProfile, f.Trace} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Errorf("%s: %v, %v", p, st, err)
		}
	}
}

// TestStartFailureStopsProfiles: a cache directory that cannot be opened
// fails Start without leaving the CPU profiler running, so the next Start
// can profile again.
func TestStartFailureStopsProfiles(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	f := Flags{CacheDir: file, CPUProfile: filepath.Join(dir, "cpu1.prof")}
	if _, _, err := f.Start(context.Background(), io.Discard, nil); err == nil {
		t.Fatal("Start over a regular file as cache dir succeeded")
	}
	f = Flags{CPUProfile: filepath.Join(dir, "cpu2.prof")}
	_, env, err := f.Start(context.Background(), io.Discard, nil)
	if err != nil {
		t.Fatalf("second Start: %v", err)
	}
	if err := env.Close(); err != nil {
		t.Fatal(err)
	}
}
