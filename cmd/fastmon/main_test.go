package main

import (
	"bytes"
	"context"
	"flag"
	"io"
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
			if err := run(context.Background(), tc.args, &out, io.Discard); err != nil {
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
