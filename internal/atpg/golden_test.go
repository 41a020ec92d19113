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
	"fastmon/internal/sim"
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

// generateDigest is the sha256 of the JSON encoding of Generate's
// (patterns, Stats).
func generateDigest(t *testing.T, gc goldenCase) string {
	t.Helper()
	pats, st, err := Generate(context.Background(), gc.c, fault.Universe(gc.c), gc.cfg)
	if err != nil {
		t.Fatalf("%s: %v", gc.name, err)
	}
	b, err := json.Marshal(struct {
		Patterns []sim.Pattern
		Stats    Stats
	}{pats, st})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestGenerateGolden pins the bytes ATPG emits: patterns and Stats of
// every case must hash to the recorded digests. Rewrite the digests with
// -update only for a deliberate change of the generated test sets.
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

	got := map[string]string{}
	for _, gc := range cases {
		got[gc.name] = generateDigest(t, gc)
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
		t.Fatalf("golden file has %d cases, test has %d", len(want), len(got))
	}
	for _, gc := range cases {
		if got[gc.name] != want[gc.name] {
			t.Errorf("%s: Generate digest %s, golden %s", gc.name, got[gc.name], want[gc.name])
		}
	}
}
