package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

func loadRepoSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestBenchmarkJSONSchema checks BENCHMARK.json against the limits its
// consumers rely on, and against the workloads and layers this program
// implements.
func TestBenchmarkJSONSchema(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("key %q missing", k)
		}
	}
	if len(keys) != 6 {
		t.Errorf("%d top-level keys, want exactly 6", len(keys))
	}
	spec := loadRepoSpec(t)

	if n := len(spec.Command); n < 1 || n > 32 {
		t.Errorf("command has %d strings", n)
	}
	for _, c := range spec.Command {
		if len(c) > 200 || strings.HasPrefix(c, "/") || strings.Contains(c, "..") {
			t.Errorf("command string %q", c)
		}
	}
	if n := len(spec.Paths); n < 1 || n > 16 {
		t.Errorf("%d paths", n)
	}
	for _, p := range spec.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			t.Errorf("path %q", p)
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d", spec.RunSeconds)
	}

	seen := map[string]bool{}
	use := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %s", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2-8", n)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d implemented", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		use(w.Name)
		if i < len(workloads) && workloads[i].name != w.Name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1-16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1-128", n)
	}
	e2e := map[string]bool{}
	setup := false
	for _, m := range spec.EndToEnd {
		use(m.Name)
		e2e[m.Name] = true
		checkMetric(t, m)
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound must be in (0, 0.25]", m.Name)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error(`end_to_end needs setup_s with unit "s" and better "lower"`)
	}
	for _, m := range spec.PerLayer {
		use(m.Name)
		checkMetric(t, m)
		if m.Bound != nil {
			t.Errorf("%s: per-layer metrics carry no bound", m.Name)
		}
		if _, ok := layerEffects[module(m.Name)]; !ok {
			t.Errorf("%s: module %q has no entry in layerEffects", m.Name, module(m.Name))
		}
	}

	// Every layer names the end-to-end metrics and workloads it moves.
	wl := map[string]bool{}
	for _, w := range spec.Workloads {
		wl[w.Name] = true
	}
	for mod, e := range layerEffects {
		if len(e.moves) == 0 && mod != "bench" {
			t.Errorf("layer %s moves no end-to-end metric", mod)
		}
		for _, x := range append(append([]effect(nil), e.moves...), e.still...) {
			if !e2e[x.metric] || !wl[x.workload] {
				t.Errorf("layer %s: unknown metric or workload in %+v", mod, x)
			}
		}
	}
}

func checkMetric(t *testing.T, m metricSpec) {
	t.Helper()
	if !unitRE.MatchString(m.Unit) {
		t.Errorf("%s: unit %q does not match %s", m.Name, m.Unit, unitRE)
	}
	if m.Better != "lower" && m.Better != "higher" {
		t.Errorf("%s: better is %q", m.Name, m.Better)
	}
}

// TestPinsCoverEveryWorkload checks that pins.json parses, pins the same
// seeds for every workload and pins the sched-s9234 schedule quality.
func TestPinsCoverEveryWorkload(t *testing.T) {
	var pins pinSet
	dec := json.NewDecoder(bytes.NewReader(pinsJSON))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&pins); err != nil {
		t.Fatal(err)
	}
	first := -1
	for _, d := range workloads {
		n := len(pins.Digests[d.name])
		if n == 0 {
			t.Errorf("no pinned digests for %s", d.name)
		}
		if first >= 0 && n != first {
			t.Errorf("%s pins %d seeds, another workload %d", d.name, n, first)
		}
		first = n
		for seed, digest := range pins.Digests[d.name] {
			if len(digest) != 64 {
				t.Errorf("%s seed %s: digest %q is not sha256 hex", d.name, seed, digest)
			}
		}
	}
	if q := pins.Schedules; q == nil || q.TestFreqs <= 0 || q.TestApps <= 0 {
		t.Errorf("schedule quality pin %+v", q)
	}
}
