package fastmon

import (
	"os"
	"strings"
	"testing"
)

// TestExperimentsFig3 keeps the Fig. 3 sweep of EXPERIMENTS.md in step
// with the default run's pinned golden: the first code block under its
// "## Fig. 3" heading must hold exactly the golden's table lines, through
// the circuit line.
func TestExperimentsFig3(t *testing.T) {
	checkDocTable(t, "## Fig. 3 ", "cmd/tablegen/testdata/default_fig3.golden", "Fig. 3. HDF coverage vs maximum FAST frequency.")
}

// TestExperimentsTableI keeps the Table I of EXPERIMENTS.md in step with
// the default run's pinned golden: the first code block under its
// "## Table I" heading must hold exactly the golden's table lines.
func TestExperimentsTableI(t *testing.T) {
	checkDocTable(t, "## Table I ", "cmd/tablegen/testdata/default_table1.golden", "TABLE I.")
}

// TestExperimentsLifetime keeps the lifetime sweep of EXPERIMENTS.md in
// step with the default run's pinned golden: the first code block under
// its "## Lifetime sweep" heading must hold exactly the golden's table
// lines.
func TestExperimentsLifetime(t *testing.T) {
	checkDocTable(t, "## Lifetime sweep ", "cmd/tablegen/testdata/default_lifetime.golden", "Lifetime sweep:")
}

// checkDocTable requires the first code block under EXPERIMENTS.md's
// heading to hold exactly the table that follows the caption line in the
// golden, up to the next blank line.
func checkDocTable(t *testing.T, heading, goldenPath, caption string) {
	t.Helper()
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	_, want, ok := strings.Cut(string(golden), "\n"+caption)
	if !ok {
		t.Fatalf("%s has no %q caption", goldenPath, caption)
	}
	_, want, _ = strings.Cut(want, "\n") // the caption line
	want, _, _ = strings.Cut(want, "\n\n")

	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n"+heading)
	if !ok {
		t.Fatalf("EXPERIMENTS.md has no %q section", heading)
	}
	_, block, ok := strings.Cut(section, "```\n")
	if !ok {
		t.Fatalf("EXPERIMENTS.md's %q section has no code block", heading)
	}
	block, _, _ = strings.Cut(block, "```")
	if got, want := strings.TrimSpace(block), strings.TrimSpace(want); got != want {
		t.Errorf("EXPERIMENTS.md's %q block differs from %s; copy the golden's rows:\n%s\n\nEXPERIMENTS.md has:\n%s",
			heading, goldenPath, want, got)
	}
}
