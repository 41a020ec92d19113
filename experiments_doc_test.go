package fastmon

import (
	"os"
	"strings"
	"testing"
)

// TestExperimentsTableI keeps the Table I of EXPERIMENTS.md in step with
// the default run's pinned golden: the first code block under its
// "## Table I" heading must hold exactly the golden's table lines.
func TestExperimentsTableI(t *testing.T) {
	const goldenPath = "cmd/tablegen/testdata/default_table1.golden"
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	_, want, ok := strings.Cut(string(golden), "\nTABLE I.")
	if !ok {
		t.Fatalf("%s has no Table I", goldenPath)
	}
	_, want, _ = strings.Cut(want, "\n") // the caption line
	want, _, _ = strings.Cut(want, "\n\n")

	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n## Table I ")
	if !ok {
		t.Fatal(`EXPERIMENTS.md has no "## Table I" section`)
	}
	_, block, ok := strings.Cut(section, "```\n")
	if !ok {
		t.Fatal("EXPERIMENTS.md's Table I section has no code block")
	}
	block, _, _ = strings.Cut(block, "```")
	if got, want := strings.TrimSpace(block), strings.TrimSpace(want); got != want {
		t.Errorf("EXPERIMENTS.md's Table I differs from %s; copy the golden's rows:\n%s\n\nEXPERIMENTS.md has:\n%s",
			goldenPath, want, got)
	}
}
