package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden reports in testdata")

// TestRunGolden pins fastmon's report: the stdout of run, without the
// wall-clock "elapsed" line, must match testdata/NAME.golden. Regenerate
// with `go test ./cmd/fastmon -run Golden -update`.
func TestRunGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"s27", []string{"-gen", "s27"}},
		{"s9234", []string{"-gen", "s9234", "-scale", "0.05", "-workers", "1"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(context.Background(), append(tc.args, outputFlags(t.TempDir())...), &out, io.Discard); err != nil {
				t.Fatal(err)
			}
			var kept []string
			for _, line := range strings.SplitAfter(out.String(), "\n") {
				if !strings.HasPrefix(line, "elapsed ") {
					kept = append(kept, line)
				}
			}
			got := strings.Join(kept, "")

			golden := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if got != string(want) {
				t.Fatalf("report drifted from %s (regenerate with -update if intended)\n--- got ---\n%s--- want ---\n%s",
					golden, got, want)
			}
		})
	}
}

// outputFlags puts the manifest and the flight dump into dir, so that a
// test run writes nothing into the package directory.
func outputFlags(dir string) []string {
	return []string{"-manifest", filepath.Join(dir, "run.json"), "-flight", filepath.Join(dir, "flight.jsonl")}
}

// TestManifestMatchesTablegen: fastmon's run.json has the payload keys
// of tablegen's (cmd/tablegen/testdata/run_golden.json), plus "cache"
// under -cache.dir, and its circuit uses keys of tablegen's circuits.
func TestManifestMatchesTablegen(t *testing.T) {
	want, wantCircuit := manifestKeys(t, filepath.Join("..", "tablegen", "testdata", "run_golden.json"))
	for _, cacheDir := range []string{"", t.TempDir()} {
		dir := t.TempDir()
		args := append([]string{"-gen", "s27", "-cache.dir", cacheDir}, outputFlags(dir)...)
		if err := run(context.Background(), args, io.Discard, io.Discard); err != nil {
			t.Fatal(err)
		}
		got, circuit := manifestKeys(t, filepath.Join(dir, "run.json"))
		if cacheDir != "" {
			want["cache"] = true
		}
		if !maps.Equal(got, want) {
			t.Errorf("-cache.dir %q: payload keys %v, want %v", cacheDir, got, want)
		}
		for k := range circuit {
			if !wantCircuit[k] {
				t.Errorf("circuit key %q is not in tablegen's circuits", k)
			}
		}
	}
}

// manifestKeys returns the key sets of the manifest record at path: its
// payload's and its first circuit's.
func manifestKeys(t *testing.T, path string) (payload, circuit map[string]bool) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rec struct{ Payload map[string]any }
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	circuits, _ := rec.Payload["circuits"].([]any)
	if len(circuits) == 0 {
		t.Fatalf("%s: no circuit", path)
	}
	payload, circuit = map[string]bool{}, map[string]bool{}
	for k := range rec.Payload {
		payload[k] = true
	}
	for k := range circuits[0].(map[string]any) {
		circuit[k] = true
	}
	return payload, circuit
}

// TestUsageErrorWritesNothing: a command line that names an unknown
// method fails before the runtime starts, so it leaves neither a
// manifest nor a flight dump.
func TestUsageErrorWritesNothing(t *testing.T) {
	dir := t.TempDir()
	args := append([]string{"-gen", "s27", "-method", "bogus"}, outputFlags(dir)...)
	err := run(context.Background(), args, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), `unknown method "bogus"`) {
		t.Fatalf("err = %v, want the unknown method", err)
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
		t.Fatalf("usage error left %v (%v), want no file", ents, err)
	}
}

// TestScaleOutOfRangeWritesNothing: -scale outside (0, 1] is a usage
// error, not the paper-size circuit that the generator's clamp would
// build, and it writes no file.
func TestScaleOutOfRangeWritesNothing(t *testing.T) {
	checkUsageError(t, []string{"-gen", "s9234", "-scale", "-1"}, "-scale -1 outside (0, 1]")
}

// TestCoverageOutOfRangeWritesNothing: -coverage outside (0, 1] is a
// usage error, not a full-coverage schedule, and it writes no file.
func TestCoverageOutOfRangeWritesNothing(t *testing.T) {
	checkUsageError(t, []string{"-gen", "s27", "-coverage", "1.5"}, "-coverage 1.5 outside (0, 1]")
}

// checkUsageError runs the command line args with the manifest and the
// flight dump in a fresh directory: run must fail with an error that
// names want and leave the directory empty.
func checkUsageError(t *testing.T, args []string, want string) {
	t.Helper()
	dir := t.TempDir()
	err := run(context.Background(), append(args, outputFlags(dir)...), io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("%v: err = %v, want %q", args, err, want)
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
		t.Fatalf("%v: usage error left %v (%v), want no file", args, ents, err)
	}
}

// TestBadFlagsReturnError: a command line the flag set rejects fails run
// with the usage text on run's stderr instead of exiting the process, and
// -h returns flag.ErrHelp.
func TestBadFlagsReturnError(t *testing.T) {
	var stderr strings.Builder
	err := run(context.Background(), []string{"-bogus"}, io.Discard, &stderr)
	if !errors.Is(err, errBadFlags) || errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-bogus: err = %v, want a bad command line", err)
	}
	if !strings.Contains(stderr.String(), "-bogus") || !strings.Contains(stderr.String(), "-gen") {
		t.Fatalf("-bogus: stderr lacks the reason or the usage text:\n%s", stderr.String())
	}
	stderr.Reset()
	if err := run(context.Background(), []string{"-h"}, io.Discard, &stderr); err != flag.ErrHelp {
		t.Fatalf("-h: err = %v, want flag.ErrHelp", err)
	}
	if !strings.Contains(stderr.String(), "-gen") {
		t.Fatalf("-h: stderr lacks the usage text:\n%s", stderr.String())
	}
}
