package obs

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"fastmon/internal/safeio"
)

// TestManifestRoundTrip: a manifest written with WriteFile reads back
// equal (modulo the any-typed payloads, which decode to generic JSON).
func TestManifestRoundTrip(t *testing.T) {
	o := New(nil)
	ctx := With(context.Background(), o)
	cctx, c := StartSpan(ctx, "s9234")
	_, s := StartSpan(cctx, "atpg")
	time.Sleep(time.Millisecond)
	s.End()
	c.End()
	o.Counter("atpg.patterns").Add(128)
	o.Gauge("detect.events_per_sec").Set(1.5e6)

	type cfg struct {
		Scale float64 `json:"scale"`
	}
	m := NewManifest("tablegen", cfg{Scale: 0.08})
	m.Finish(o)

	if m.ConfigFingerprint == "" || m.ConfigFingerprint != Fingerprint(cfg{Scale: 0.08}) {
		t.Errorf("fingerprint mismatch: %q", m.ConfigFingerprint)
	}
	if Fingerprint(cfg{Scale: 0.1}) == m.ConfigFingerprint {
		t.Error("different configs share a fingerprint")
	}

	path := filepath.Join(t.TempDir(), "run.json")
	if err := m.WriteFile(context.Background(), path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Tool != "tablegen" || got.GoVersion != m.GoVersion || got.ConfigFingerprint != m.ConfigFingerprint {
		t.Errorf("provenance fields did not round-trip: %+v", got)
	}
	if got.WallClock != m.WallClock || !got.Start.Equal(m.Start) {
		t.Errorf("timing fields did not round-trip")
	}
	if !reflect.DeepEqual(got.Stages, m.Stages) {
		t.Errorf("stages did not round-trip:\n  wrote %+v\n  read  %+v", m.Stages, got.Stages)
	}
	if !reflect.DeepEqual(got.Metrics, m.Metrics) {
		t.Errorf("metrics did not round-trip:\n  wrote %+v\n  read  %+v", m.Metrics, got.Metrics)
	}
	// The config payload survives as generic JSON.
	cm, ok := got.Config.(map[string]any)
	if !ok || cm["scale"] != 0.08 {
		t.Errorf("config payload = %#v", got.Config)
	}
	// The same manifest as naked JSON is no record: it reads as corrupt.
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	naked := filepath.Join(t.TempDir(), "naked.json")
	if err := os.WriteFile(naked, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(naked); !errors.Is(err, safeio.ErrCorrupt) {
		t.Errorf("naked-JSON manifest: err %v, want ErrCorrupt", err)
	}
}

// TestStageTimingsExcludesAncestors: wrapper spans (the per-circuit
// span) must not double-count the stage time they contain, and repeated
// stages aggregate by name.
func TestStageTimingsExcludesAncestors(t *testing.T) {
	recs := []SpanRecord{
		{Path: "s9234/atpg", Name: "atpg", Duration: 10 * time.Millisecond},
		{Path: "s9234/detect", Name: "detect", Duration: 30 * time.Millisecond},
		{Path: "s9234", Name: "s9234", Duration: 41 * time.Millisecond}, // ancestor: excluded
		{Path: "s13207/detect", Name: "detect", Duration: 50 * time.Millisecond},
		{Path: "s13207", Name: "s13207", Duration: 51 * time.Millisecond}, // ancestor: excluded
	}
	got := StageTimings(recs)
	want := []StageTiming{
		{Name: "detect", Count: 2, Total: 80 * time.Millisecond},
		{Name: "atpg", Count: 1, Total: 10 * time.Millisecond},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("StageTimings = %+v, want %+v", got, want)
	}
}

// TestManifestJSONShape pins the stable key names external consumers
// (the CI artifact, diffing tools) rely on.
func TestManifestJSONShape(t *testing.T) {
	m := NewManifest("fastmon", nil)
	m.Finish(New(nil))
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]any
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"tool", "git_rev", "go_version", "os", "arch", "start", "wall_clock_ns", "metrics"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("manifest JSON missing key %q: %s", k, data)
		}
	}
}
