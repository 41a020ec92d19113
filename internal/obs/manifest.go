package obs

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"fastmon/internal/safeio"
)

// Manifest is the machine-readable record of one run ("run.json"): build
// provenance, the configuration it ran under (plus a fingerprint for
// cheap equality checks), aggregated per-stage timings, the full metrics
// snapshot, and an optional tool-specific payload (both CLIs attach
// their per-circuit results there).
type Manifest struct {
	Tool      string    `json:"tool"`
	GitRev    string    `json:"git_rev"`
	GoVersion string    `json:"go_version"`
	OS        string    `json:"os"`
	Arch      string    `json:"arch"`
	Start     time.Time `json:"start"`
	// WallClock is the total run duration.
	WallClock time.Duration `json:"wall_clock_ns"`

	// Config echoes the run configuration; ConfigFingerprint is the
	// sha256 of its canonical JSON, so two manifests ran the same setup
	// iff the fingerprints match.
	Config            any    `json:"config,omitempty"`
	ConfigFingerprint string `json:"config_fingerprint,omitempty"`

	// Stages aggregates leaf spans by name (see StageTimings).
	Stages []StageTiming `json:"stages,omitempty"`

	// Circuits is the tool-specific per-circuit payload (both CLIs store
	// one exper.CircuitResult per circuit here).
	Circuits any `json:"circuits,omitempty"`

	// Cache summarizes the content-addressed result cache when the run
	// was cache-armed: directory, budget, and hit/miss/eviction traffic.
	Cache *CacheReport `json:"cache,omitempty"`

	// Metrics is the registry snapshot at the end of the run.
	Metrics Snapshot `json:"metrics"`
}

// CacheReport is the manifest's result-cache summary. It is defined here
// (not in internal/cache, which imports obs) so the manifest stays free of
// an import cycle; cache.Store.Report constructs it.
type CacheReport struct {
	Dir       string `json:"dir"`
	MaxBytes  int64  `json:"max_bytes,omitempty"`
	Entries   int    `json:"entries"`
	Bytes     int64  `json:"bytes"`
	Hits      int64  `json:"hits"`
	Misses    int64  `json:"misses"`
	Corrupt   int64  `json:"corrupt,omitempty"`
	Evictions int64  `json:"evictions,omitempty"`
	Puts      int64  `json:"puts,omitempty"`
	// WriteErrors counts best-effort Put failures (marshal or disk).
	WriteErrors int64 `json:"write_errors,omitempty"`
}

// StageTiming is the aggregate of every leaf span with one name.
type StageTiming struct {
	Name  string        `json:"name"`
	Count int           `json:"count"`
	Total time.Duration `json:"total_ns"`
}

// NewManifest seeds a manifest with build provenance and the config
// fingerprint. The start time is recorded now; Finish completes the
// timing side.
func NewManifest(tool string, config any) *Manifest {
	m := &Manifest{
		Tool:      tool,
		GitRev:    GitRevision(),
		GoVersion: runtime.Version(),
		OS:        runtime.GOOS,
		Arch:      runtime.GOARCH,
		Start:     time.Now(),
		Config:    config,
	}
	if config != nil {
		m.ConfigFingerprint = Fingerprint(config)
	}
	return m
}

// Finish stamps the wall clock and folds the observer's spans and
// metrics into the manifest.
func (m *Manifest) Finish(o *Observer) {
	m.WallClock = time.Since(m.Start)
	m.Stages = StageTimings(o.Spans())
	m.Metrics = o.Metrics().Snapshot()
}

// WriteFile durably writes the manifest as a CRC-stamped record:
// fsync-then-rename atomic replacement (safeio) so a crash never leaves
// a torn or missing run.json behind a completed run.
func (m *Manifest) WriteFile(ctx context.Context, path string) error {
	data, err := safeio.MarshalRecordIndent(m)
	if err != nil {
		return fmt.Errorf("obs: marshal manifest: %w", err)
	}
	return safeio.WriteFileAtomic(ctx, path, data, 0o644)
}

// ReadManifest loads a manifest written by WriteFile, verifying its
// checksum. A file that is not an intact record, naked JSON included, is
// reported as corrupt.
func ReadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := safeio.UnmarshalRecord(data, &m); err != nil {
		return nil, fmt.Errorf("obs: manifest %s: %w", path, err)
	}
	return &m, nil
}

// StageTimings aggregates span records by name, counting only leaf
// spans: a span that is an ancestor of another recorded span (its path
// is a proper path-prefix) is excluded, so nested circuit wrappers do
// not double-count the stage time they contain. The result is sorted by
// descending total.
func StageTimings(records []SpanRecord) []StageTiming {
	// Ancestor test via path-prefix; record counts are small (spans are
	// per stage, not per item), so the quadratic scan is fine.
	isAncestor := make([]bool, len(records))
	for i, a := range records {
		for j, b := range records {
			if i == j {
				continue
			}
			if strings.HasPrefix(b.Path, a.Path+"/") {
				isAncestor[i] = true
				break
			}
		}
	}
	agg := map[string]*StageTiming{}
	for i, r := range records {
		if isAncestor[i] {
			continue
		}
		t := agg[r.Name]
		if t == nil {
			t = &StageTiming{Name: r.Name}
			agg[r.Name] = t
		}
		t.Count++
		t.Total += r.Duration
	}
	out := make([]StageTiming, 0, len(agg))
	for _, t := range agg {
		out = append(out, *t)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Total != out[b].Total {
			return out[a].Total > out[b].Total
		}
		return out[a].Name < out[b].Name
	})
	return out
}

// Fingerprint returns the sha256 (hex) of the canonical JSON encoding of
// v — the configuration fingerprint of the manifest.
func Fingerprint(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		return "unencodable"
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// GitRevision returns the VCS revision baked into the binary by the Go
// toolchain ("unknown" for test binaries and non-VCS builds); a "+dirty"
// suffix marks uncommitted modifications.
func GitRevision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}
