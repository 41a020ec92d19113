package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// benchSpec is BENCHMARK.json: the command, the workloads, and every
// metric's unit, direction and (end-to-end metrics only) bound.
type benchSpec struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []workSpec   `json:"workloads"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

type workSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// loadSpec reads BENCHMARK.json, rejecting unknown keys.
func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s benchSpec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// metrics returns the end-to-end or the per-layer metric specs.
func (s *benchSpec) metrics(perLayer bool) []metricSpec {
	if perLayer {
		return s.PerLayer
	}
	return s.EndToEnd
}

// effect is one prediction: a layer's metrics move an end-to-end metric
// on a workload.
type effect struct{ metric, workload string }

// layerEffects says, per module, which end-to-end metric its per-layer
// metrics should move on which workload (moves), and where the prediction
// is no change (still). README.md explains each entry.
var layerEffects = map[string]struct{ moves, still []effect }{
	"atpg": {
		moves: []effect{{"wall_s", "cold-iscas"}, {"setup_s", "sched-s9234"}, {"setup_s", "warm-rerun"}, {"setup_s", "aging-resim"}},
		still: []effect{{"wall_s", "sched-s9234"}, {"wall_s", "warm-rerun"}, {"wall_s", "aging-resim"}},
	},
	"detect": {
		moves: []effect{{"wall_s", "aging-resim"}, {"wall_s", "cold-iscas"}},
		still: []effect{{"wall_s", "sched-s9234"}, {"wall_s", "warm-rerun"}},
	},
	"schedule": {
		moves: []effect{{"wall_s", "sched-s9234"}, {"setup_s", "warm-rerun"}},
		still: []effect{{"wall_s", "cold-iscas"}, {"wall_s", "aging-resim"}},
	},
	"ilp": {
		moves: []effect{{"wall_s", "sched-s9234"}, {"setup_s", "warm-rerun"}},
		still: []effect{{"wall_s", "cold-iscas"}, {"wall_s", "aging-resim"}},
	},
	"cache": {
		moves: []effect{{"wall_s", "warm-rerun"}, {"wall_s", "aging-resim"}, {"setup_s", "warm-rerun"}, {"setup_s", "aging-resim"}},
		still: []effect{{"wall_s", "cold-iscas"}, {"wall_s", "sched-s9234"}},
	},
	"core": {
		moves: []effect{{"wall_s", "warm-rerun"}, {"wall_s", "aging-resim"}},
		still: []effect{{"wall_s", "sched-s9234"}},
	},
	"circuit": {
		moves: []effect{{"wall_s", "warm-rerun"}},
		still: []effect{{"wall_s", "sched-s9234"}},
	},
	"aging": {
		moves: []effect{{"wall_s", "aging-resim"}},
		still: []effect{{"wall_s", "cold-iscas"}, {"wall_s", "sched-s9234"}, {"wall_s", "warm-rerun"}},
	},
	"runtime": {
		moves: []effect{{"wall_s", "aging-resim"}, {"peak_rss_mb", "aging-resim"}, {"wall_s", "warm-rerun"}, {"peak_rss_mb", "warm-rerun"}},
	},
	// The benchmark's own tracing bookkeeping and attribution check run
	// only in traced runs, so they move no end-to-end metric.
	"bench": {},
}

// module returns the module part of a per-layer metric name.
func module(metric string) string {
	m, _, _ := strings.Cut(metric, ".")
	return m
}
