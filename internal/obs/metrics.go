package obs

import (
	"math"
	"math/bits"
	"strconv"
	"sync"
	"sync/atomic"
)

// Registry is a name-keyed collection of metrics. Lookup is guarded by a
// read-mostly lock; the metric instruments themselves are lock-free, so
// hot loops should hoist the lookup out of the loop and hammer the
// instrument. All methods are safe on a nil receiver.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n (no-op on nil).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (zero on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomically set float64 (last write wins).
type Gauge struct{ bits atomic.Uint64 }

// Set stores v (no-op on nil).
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the last stored value (zero on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// histBuckets is the fixed bucket count: bucket i counts observations v
// with 2^(i-1) <= v < 2^i (bucket 0 counts v <= 0 and v == 1 lands in
// bucket 1). Powers of two keep Observe branch-free and allocation-free.
const histBuckets = 64

// Histogram is a lock-free histogram over non-negative int64 values
// (typically nanoseconds or node counts) with power-of-two buckets.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one value (no-op on nil).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	i := 0
	if v > 0 {
		i = bits.Len64(uint64(v))
		if i >= histBuckets {
			i = histBuckets - 1
		}
	}
	h.buckets[i].Add(1)
}

// HistogramSnapshot is a point-in-time copy of a histogram. Buckets maps
// the inclusive lower bound of each power-of-two bucket (bucket "2^k"
// counts observations v with 2^k <= v < 2^(k+1); bucket "0" counts
// v <= 0) to its count; empty buckets are omitted.
type HistogramSnapshot struct {
	Count   int64            `json:"count"`
	Sum     int64            `json:"sum"`
	Buckets map[string]int64 `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time copy of a whole registry, shaped for JSON
// (the manifest embeds it).
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures every metric currently registered. A nil registry
// yields an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{}
	if r == nil {
		return s
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for n, c := range r.counters {
			s.Counters[n] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]float64, len(r.gauges))
		for n, g := range r.gauges {
			s.Gauges[n] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for n, h := range r.hists {
			hs := HistogramSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
			for i := range h.buckets {
				if c := h.buckets[i].Load(); c > 0 {
					if hs.Buckets == nil {
						hs.Buckets = map[string]int64{}
					}
					hs.Buckets[bucketLabel(i)] = c
				}
			}
			s.Histograms[n] = hs
		}
	}
	return s
}

// bucketLabel renders the inclusive lower bound of bucket i ("0", "1",
// "2", "4", "8", ...; the last bucket is open-ended and labeled "+Inf").
func bucketLabel(i int) string {
	switch {
	case i == 0:
		return "0"
	case i >= histBuckets-1:
		return "+Inf"
	default:
		return strconv.FormatUint(1<<uint(i-1), 10)
	}
}
