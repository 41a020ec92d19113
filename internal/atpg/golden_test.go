package atpg

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"fastmon/internal/circuit"
	"fastmon/internal/fault"
)

var update = flag.Bool("update", false, "rewrite testdata/generate_golden.json")

const goldenPath = "testdata/generate_golden.json"

// goldenCase is one pinned Generate run.
type goldenCase struct {
	name string
	c    *circuit.Circuit
	cfg  Config
}

// goldenCases covers the bench netlists plus three generated circuits
// that between them instantiate every combinational gate kind. The last
// one disables the random phase, so every pattern comes from PODEM and
// justification.
func goldenCases() []goldenCase {
	return []goldenCase{
		{"s27", circuit.MustParseBench("s27", circuit.S27), DefaultConfig(1)},
		{"c17", circuit.MustParseBench("c17", circuit.C17), DefaultConfig(2)},
		{"g200", circuit.MustGenerate(circuit.GenSpec{
			Name: "g200", Gates: 200, FFs: 12, Inputs: 10, Outputs: 6, Depth: 9, Seed: 21}), DefaultConfig(3)},
		{"g320", circuit.MustGenerate(circuit.GenSpec{
			Name: "g320", Gates: 320, FFs: 24, Inputs: 12, Outputs: 8, Depth: 13, Seed: 58}), DefaultConfig(4)},
		{"g260-podem", circuit.MustGenerate(circuit.GenSpec{
			Name: "g260", Gates: 260, FFs: 16, Inputs: 12, Outputs: 8, Depth: 11, Seed: 77}),
			Config{RandomBatches: 0, MaxBacktracks: 300, Seed: 5, Compact: true}},
	}
}

// goldenRecord is one case of the golden file: the sha256 of the JSON
// encoding of Generate's pattern set, and its Stats in the clear, so a
// failure says which half moved and a Stats change reads as numbers.
type goldenRecord struct {
	Patterns string `json:"patterns"`
	Stats    Stats  `json:"stats"`
}

// generateRecord runs one golden case.
func generateRecord(t *testing.T, gc goldenCase) goldenRecord {
	t.Helper()
	pats, st, err := Generate(context.Background(), gc.c, fault.Universe(gc.c), gc.cfg)
	if err != nil {
		t.Fatalf("%s: %v", gc.name, err)
	}
	b, err := json.Marshal(pats)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return goldenRecord{Patterns: hex.EncodeToString(sum[:]), Stats: st}
}

// TestGenerateGolden pins what ATPG emits: every case's pattern set must
// hash to the recorded digest, and its Stats must equal the recorded
// ones. The exact Untestable, Aborted and Backtracks figures are what
// holds the SAT proofs in place. Rewrite the file with -update only for a
// deliberate change of the generated test sets or of their Stats.
func TestGenerateGolden(t *testing.T) {
	cases := goldenCases()
	kinds := map[circuit.Kind]bool{}
	for _, gc := range cases[2:] {
		for _, g := range gc.c.Gates {
			kinds[g.Kind] = true
		}
	}
	for k := circuit.Buf; k <= circuit.Xnor; k++ {
		if !kinds[k] {
			t.Fatalf("generated golden circuits never instantiate %v", k)
		}
	}

	got := map[string]goldenRecord{}
	for _, gc := range cases {
		got[gc.name] = generateRecord(t, gc)
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
		t.Fatalf("%v (record the file with -update)", err)
	}
	var want map[string]goldenRecord
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden file has %d cases, test has %d", len(want), len(got))
	}
	for _, gc := range cases {
		g, w := got[gc.name], want[gc.name]
		if g.Patterns != w.Patterns {
			t.Errorf("%s: patterns digest %s, golden %s", gc.name, g.Patterns, w.Patterns)
		}
		if g.Stats != w.Stats {
			t.Errorf("%s: Stats moved:\ngot    %+v\ngolden %+v", gc.name, g.Stats, w.Stats)
		}
	}
}
