package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"time"
)

// span is one timed call into the library, or one replay of a stage the
// call ran internally. Replayed spans are children of the call that ran
// the stage; they are placed at the start of their parent because only
// their durations are known.
type span struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent"` // -1 for a root
	Trace    string  `json:"trace"`  // workload/circuit
	Name     string  `json:"name"`   // module.operation
	Phase    string  `json:"phase"`  // setup, pass or check
	Start    float64 `json:"start_s"`
	End      float64 `json:"end_s"`
	Allocs   uint64  `json:"allocs"`
	Bytes    uint64  `json:"bytes"`
	Replayed bool    `json:"replayed,omitempty"`
}

func (s span) dur() float64 { return s.End - s.Start }

// memSample holds the runtime counters read around every traced call.
type memSample struct {
	allocs, bytes uint64
	gcCPU, allCPU float64
}

var memNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

// tracer keeps spans and per-layer counters in memory for one run. A nil
// *tracer records nothing, so untraced runs pay no bookkeeping.
type tracer struct {
	t0       time.Time
	spans    []span
	counts   map[string]float64
	samples  []metrics.Sample
	overhead time.Duration // bookkeeping inside timed passes
	gcCPU    float64       // GC CPU seconds inside timed calls of passes
	allCPU   float64       // available CPU seconds inside those calls
	allocMB  float64       // MB allocated inside those calls
	calib    []float64     // calibration seconds, one per pass
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now(), counts: map[string]float64{}}
	for _, n := range memNames {
		t.samples = append(t.samples, metrics.Sample{Name: n})
	}
	return t
}

func (t *tracer) read() memSample {
	metrics.Read(t.samples)
	return memSample{
		allocs: t.samples[0].Value.Uint64(),
		bytes:  t.samples[1].Value.Uint64(),
		gcCPU:  t.samples[2].Value.Float64(),
		allCPU: t.samples[3].Value.Float64(),
	}
}

func (t *tracer) since(at time.Time) float64 { return at.Sub(t.t0).Seconds() }

// record appends a finished span and returns its id.
func (t *tracer) record(s span) int {
	s.ID = len(t.spans)
	t.spans = append(t.spans, s)
	return s.ID
}

// layer is the per-module aggregate of the pass-phase spans: self time
// and the allocations made outside child spans.
type layer struct {
	self, allocs, bytes float64
}

// layers aggregates the pass-phase spans per module: a span's self time
// and allocations are its own minus its direct children's, and never
// negative. roots is the summed duration of the pass-phase roots, the
// timed calls. A replayed child times its stage outside the call it
// splits, so a call's replays can outlast it; its self time is then 0 and
// the layers' self times sum to more than roots. excess is by how much,
// as a share of roots.
func (t *tracer) layers() (ls map[string]*layer, roots, excess float64) {
	kids := make([]layer, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			k := &kids[s.Parent]
			k.self += s.dur()
			k.allocs += float64(s.Allocs)
			k.bytes += float64(s.Bytes)
		}
	}
	ls = map[string]*layer{}
	sum := 0.0
	for _, s := range t.spans {
		if s.Phase != "pass" {
			continue
		}
		l := ls[module(s.Name)]
		if l == nil {
			l = &layer{}
			ls[module(s.Name)] = l
		}
		k := kids[s.ID]
		if s.Parent < 0 {
			roots += s.dur()
		}
		self := max(0, s.dur()-k.self)
		sum += self
		l.self += self
		l.allocs += max(0, float64(s.Allocs)-k.allocs)
		l.bytes += max(0, float64(s.Bytes)-k.bytes)
	}
	return ls, roots, frac(sum-roots, roots)
}

// spanSum returns the total duration of the spans with the given name and
// phase.
func (t *tracer) spanSum(name, phase string) float64 {
	sum := 0.0
	for _, s := range t.spans {
		if s.Phase == phase && s.Name == name {
			sum += s.dur()
		}
	}
	return sum
}

// summary prints self time, share and allocations per layer.
func (t *tracer) summary(w io.Writer, workload string, passes int) {
	ls, roots, excess := t.layers()
	names := make([]string, 0, len(ls))
	for n := range ls {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return ls[names[i]].self > ls[names[j]].self })
	n := float64(max(passes, 1))
	fmt.Fprintf(w, "# %s: per-layer self time over %d traced passes (%.3f s of timed calls per pass)\n",
		workload, passes, roots/n)
	fmt.Fprintf(w, "# %-9s %12s %7s %14s %12s\n", "layer", "self s/pass", "share", "allocs/pass", "MB/pass")
	for _, name := range names {
		l := ls[name]
		fmt.Fprintf(w, "# %-9s %12.4f %6.1f%% %14.0f %12.2f\n", name,
			l.self/n, 100*frac(l.self, roots), l.allocs/n, l.bytes/1e6/n)
	}
	fmt.Fprintf(w, "# layer self times exceed the timed calls by %.2f%% (limit %.0f%%); tracing bookkeeping %.6f s/pass\n",
		100*excess, 100*maxLayerExcess, t.overhead.Seconds()/n)
}

// write stores the spans as JSON under dir.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	data, err := json.MarshalIndent(map[string]any{
		"workload": workload, "seed": seed, "counts": t.counts, "spans": t.spans,
	}, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// frac returns a/b, or 0 when b is 0.
func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
