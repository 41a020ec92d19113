package cli

import (
	"context"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fastmon/internal/cache"
	"fastmon/internal/obs"
)

// TestRegisterDefinesRuntimeFlags pins the runtime flag surface: exactly
// these eight flags, with these defaults.
func TestRegisterDefinesRuntimeFlags(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	var f Flags
	f.Register(fs)
	want := map[string]string{
		"v": "false", "json-logs": "false", "listen": "",
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
// context, and Close prints the traffic summary.
func TestStartAttachesCacheAndReportsIt(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	var log strings.Builder
	ctx, env, err := Flags{CacheDir: dir}.Start(context.Background(), &log, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cache.From(ctx) == nil {
		t.Fatal("no cache on the context")
	}
	if obs.From(ctx) != env.Observer || env.Observer == nil {
		t.Fatal("observer not on the context")
	}
	if env.Flight != nil || env.Server != nil {
		t.Fatalf("recorder %v, server %v without -listen", env.Flight, env.Server)
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

// TestStartServesIntrospection: -listen starts the server with a flight
// recorder of its own and prints its address.
func TestStartServesIntrospection(t *testing.T) {
	var log strings.Builder
	_, env, err := Flags{Listen: "127.0.0.1:0"}.Start(context.Background(), &log, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	if env.Flight == nil || env.Observer.Flight() != env.Flight {
		t.Fatal("-listen did not attach a flight recorder")
	}
	if !strings.Contains(log.String(), "# introspection: http://"+env.Server.Addr()+"/") {
		t.Fatalf("log = %q", log.String())
	}
	resp, err := http.Get("http://" + env.Server.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Fatalf("/healthz = %d %q", resp.StatusCode, body)
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
