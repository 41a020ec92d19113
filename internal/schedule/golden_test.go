package schedule

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"fastmon/internal/detect"
	"fastmon/internal/fmerr"
)

var update = flag.Bool("update", false, "rewrite testdata/build_golden.json")

const goldenPath = "testdata/build_golden.json"

// TestBuildGolden pins which schedule Build returns: the sha256 of the
// JSON of every schedule must match the recorded digest. The differential
// tests call the same covering solvers on both sides, so only this test
// sees a change in which optimum or which greedy cover is picked. The
// instances are small enough that every ILP solve finishes within its
// budget on any host; a budget-bound schedule would depend on host speed,
// so the test fails on one. Rewrite the digests with -update only for a
// deliberate change of the schedules.
func TestBuildGolden(t *testing.T) {
	type instance struct {
		name string
		data []detect.FaultData
		opt  Options
	}
	s27data, s27opt := buildS27(t)
	gen1, genOpt1 := referenceData(42, 120, 8, 3)
	gen2, genOpt2 := referenceData(7, 80, 6, 0)
	instances := []instance{
		{"s27", s27data, s27opt},
		{"gen-delays", gen1, genOpt1},
		{"gen-nodelays", gen2, genOpt2},
	}

	got := map[string]string{}
	for _, inst := range instances {
		for _, m := range []Method{ILP, Heuristic, Conventional} {
			for _, cov := range []float64{1.0, 0.99, 0.98, 0.95, 0.90} {
				for _, free := range []bool{false, true} {
					if free && len(inst.opt.Delays) == 0 {
						continue
					}
					o := inst.opt
					o.Method, o.Coverage, o.FreeConfig, o.Workers = m, cov, free, 1
					name := fmt.Sprintf("%s/%v/cov=%g/free=%v", inst.name, m, cov, free)
					s, err := Build(context.Background(), inst.data, o)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if m == ILP && (s.Degradation != fmerr.DegradeNone || !s.FreqOptimal || !s.CombosOptimal) {
						t.Fatalf("%s: ILP schedule is not exact (%v)", name, s.Degradation)
					}
					b, err := json.Marshal(s)
					if err != nil {
						t.Fatal(err)
					}
					sum := sha256.Sum256(b)
					got[name] = hex.EncodeToString(sum[:])
				}
			}
		}
	}
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (record digests with -update)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden file has %d schedules, test builds %d", len(want), len(got))
	}
	for name, d := range got {
		if d != want[name] {
			t.Errorf("%s: Build digest %s, golden %s", name, d, want[name])
		}
	}
}
