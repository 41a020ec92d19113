package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestScaleOutOfRangeWritesNothing: -scale outside (0, 1] is a usage
// error, not the paper-size circuit that the generator's clamp would
// build, and it writes neither the netlist nor the SDF file.
func TestScaleOutOfRangeWritesNothing(t *testing.T) {
	for _, scale := range []float64{0, -1, 1.5} {
		dir := t.TempDir()
		err := run(false, "s27", scale, filepath.Join(dir, "s27.bench"), filepath.Join(dir, "s27.sdf"))
		if err == nil || !strings.Contains(err.Error(), "outside (0, 1]") {
			t.Fatalf("-scale %g: err = %v, want a range error", scale, err)
		}
		if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
			t.Fatalf("-scale %g: usage error left %v (%v), want no file", scale, ents, err)
		}
	}
}
