package cli

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"fastmon/internal/cache"
	"fastmon/internal/obs"
	"fastmon/internal/obs/flight"
)

// TestRegisterDefinesRuntimeFlags pins the runtime flag surface: exactly
// these nine flags, with these defaults.
func TestRegisterDefinesRuntimeFlags(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	var f Flags
	f.Register(fs)
	want := map[string]string{
		"v": "false", "json-logs": "false",
		"cache.dir": "", "cache.max": "536870912",
		"manifest": "run.json", "flight": "flight.jsonl",
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
	if err := fs.Parse([]string{"-v", "-cache.dir", "d", "-cache.max", "7", "-manifest", "", "-flight", "f"}); err != nil {
		t.Fatal(err)
	}
	if !f.Verbose || f.CacheDir != "d" || f.CacheMax != 7 || f.Manifest != "" || f.Flight != "f" {
		t.Fatalf("parsed flags = %+v", f)
	}
}

// TestStartAttachesCacheAndReportsIt: -cache.dir puts the store on the
// context, -flight attaches a recorder dumping there to the observer,
// and Close prints the traffic summary.
func TestStartAttachesCacheAndReportsIt(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	dump := filepath.Join(t.TempDir(), "flight.jsonl")
	var log strings.Builder
	ctx, env, err := Flags{CacheDir: dir, Flight: dump}.Start(context.Background(), &log, "test", nil)
	if err != nil {
		t.Fatal(err)
	}
	if cache.From(ctx) == nil {
		t.Fatal("no cache on the context")
	}
	if obs.From(ctx) != env.Observer || env.Observer == nil {
		t.Fatal("observer not on the context")
	}
	if rec := env.Observer.Flight(); rec == nil || rec.DumpPath != dump {
		t.Fatalf("attached flight recorder %+v, want one dumping to %s", rec, dump)
	}
	if err := env.Close(nil, nil); err != nil {
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
	_, env, err := f.Start(context.Background(), io.Discard, "test", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := env.Close(nil, nil); err != nil {
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
	if _, _, err := f.Start(context.Background(), io.Discard, "test", nil); err == nil {
		t.Fatal("Start over a regular file as cache dir succeeded")
	}
	f = Flags{CPUProfile: filepath.Join(dir, "cpu2.prof")}
	_, env, err := f.Start(context.Background(), io.Discard, "test", nil)
	if err != nil {
		t.Fatalf("second Start: %v", err)
	}
	if err := env.Close(nil, nil); err != nil {
		t.Fatal(err)
	}
}

// TestCloseWritesManifest: Close writes the manifest Start seeded, with
// the tool, the config fingerprint, the stages and the given circuits,
// also after the run's context was cancelled; a clean run writes no
// flight dump.
func TestCloseWritesManifest(t *testing.T) {
	dir := t.TempDir()
	f := Flags{Manifest: filepath.Join(dir, "run.json"), Flight: filepath.Join(dir, "flight.jsonl")}
	config := struct{ Scale float64 }{0.05}
	ctx, cancel := context.WithCancel(context.Background())
	ctx, env, err := f.Start(ctx, io.Discard, "fastmon", config)
	if err != nil {
		t.Fatal(err)
	}
	_, span := obs.StartSpan(ctx, "atpg")
	span.End()
	cancel()
	if err := env.Close([]map[string]any{{"name": "s27"}}, nil); err != nil {
		t.Fatal(err)
	}
	man, err := obs.ReadManifest(f.Manifest)
	if err != nil {
		t.Fatal(err)
	}
	if man.Tool != "fastmon" || man.ConfigFingerprint != obs.Fingerprint(config) {
		t.Errorf("tool %q, fingerprint %q; want fastmon, %q", man.Tool, man.ConfigFingerprint, obs.Fingerprint(config))
	}
	if want := []any{map[string]any{"name": "s27"}}; !reflect.DeepEqual(man.Circuits, want) {
		t.Errorf("circuits = %#v, want %#v", man.Circuits, want)
	}
	if len(man.Stages) != 1 || man.Stages[0].Name != "atpg" {
		t.Errorf("stages = %+v, want the one atpg span", man.Stages)
	}
	if _, err := os.Stat(f.Flight); !os.IsNotExist(err) {
		t.Errorf("clean run left a flight dump: %v", err)
	}
}

// TestCloseDumpsFlightOnRunError: Close dumps the flight recorder when
// the run failed, ending with a dump event that names the error.
func TestCloseDumpsFlightOnRunError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flight.jsonl")
	var log strings.Builder
	_, env, err := Flags{Flight: path}.Start(context.Background(), &log, "test", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := env.Close(nil, errors.New("atpg: boom")); err != nil {
		t.Fatal(err)
	}
	if ev := lastEvent(t, path); ev.Kind != flight.KindDump || ev.Detail != "run error: atpg: boom" {
		t.Fatalf("last event %+v does not name the run error", ev)
	}
	if !strings.Contains(log.String(), "# flight: dumped "+path) {
		t.Errorf("dump not reported: %q", log.String())
	}
}

// TestSIGQUITDumpsFlight: while a runtime with a flight recorder is
// open, SIGQUIT dumps the recorder and the process goes on.
func TestSIGQUITDumpsFlight(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flight.jsonl")
	_, env, err := Flags{Flight: path}.Start(context.Background(), io.Discard, "test", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close(nil, nil) //nolint:errcheck // no profiles to flush
	self, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if err := self.Signal(syscall.SIGQUIT); err != nil {
		t.Skipf("cannot signal this process: %v", err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if _, err := os.Stat(path); err == nil {
			break
		} else if time.Now().After(deadline) {
			t.Fatal("no flight dump 10 s after SIGQUIT")
		}
	}
	if ev := lastEvent(t, path); ev.Kind != flight.KindDump || ev.Detail != "SIGQUIT" {
		t.Fatalf("last event %+v, want the SIGQUIT dump", ev)
	}
}

// lastEvent returns the last event of the JSONL flight dump at path.
func lastEvent(t *testing.T, path string) flight.Event {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	var ev flight.Event
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &ev); err != nil {
		t.Fatal(err)
	}
	return ev
}
