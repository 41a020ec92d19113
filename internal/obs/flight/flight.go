// Package flight is the pipeline's flight recorder: a fixed-capacity,
// lock-free ring buffer of structured events that every stage feeds
// through the context-carried observer. Where the metrics registry
// answers "how much" and spans answer "how long", the flight recorder
// answers "what happened, in what order, right before it went wrong" —
// the last few thousand span transitions, solver incumbent updates,
// result-cache traffic and recovered panics, cheap enough to leave on
// for every run.
//
// The ring is a power-of-two slot array of atomic event pointers plus an
// atomic head counter. Writers claim a sequence number with one atomic
// add and publish a fully-built immutable event with one atomic pointer
// store — no locks, no coordination with readers, and wraparound simply
// overwrites the oldest slot. A reader (the post-mortem dump) snapshots
// the slots, orders them by sequence number, and tolerates the races
// inherent in reading a live ring: a snapshot is the recorder's best
// recollection, not a transaction.
//
// A nil *Recorder is fully valid and every operation on it is a no-op,
// mirroring obs.Observer and chaos.Injector, so instrumented code never
// branches on "is the flight recorder enabled".
//
// Dumps are JSONL — one event per line, append-friendly and greppable —
// written atomically through internal/safeio so a post-mortem journal is
// never itself torn by the crash it documents.
package flight

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"sort"
	"sync/atomic"
	"time"

	"fastmon/internal/safeio"
)

// Kind classifies a flight event.
type Kind string

// The event taxonomy. Every stage reuses these kinds so a dump can be
// filtered with a single grep.
const (
	// KindSpanBegin / KindSpanEnd bracket an obs span; Name is the
	// slash-joined span path ("s9234/detect").
	KindSpanBegin Kind = "span.begin"
	KindSpanEnd   Kind = "span.end"
	// KindIncumbent is a branch-and-bound incumbent improvement; Value is
	// the new objective value (cover size).
	KindIncumbent Kind = "incumbent"
	// KindPanic is a recovered panic converted to a typed error; Detail
	// carries the panic message.
	KindPanic Kind = "panic"
	// KindDump marks the dump itself (the trigger is in Detail), so a
	// journal records why it exists.
	KindDump Kind = "dump"
	// KindCache marks result-cache traffic; Name is the stage key,
	// Detail "hit"/"miss"/"put"/"evict"/"corrupt", Value the entry size.
	KindCache Kind = "cache"
)

// Event is one flight-recorder entry. Events are immutable once
// recorded; the JSON field names are part of the dump format documented
// in DESIGN.md §12.
type Event struct {
	// Seq is the global sequence number assigned at Record time; dumps
	// are ordered by it and gaps mark overwritten (or in-flight) slots.
	Seq  uint64    `json:"seq"`
	Time time.Time `json:"t"`
	Kind Kind      `json:"kind"`
	// Name locates the event: a span path, cache key, circuit, or solver
	// label.
	Name string `json:"name,omitempty"`
	// Stage is the fmerr pipeline stage the event attributes to, when one
	// applies ("detect", "solve", "exper", ...).
	Stage string `json:"stage,omitempty"`
	// Detail is free-form context: an error message, a cache outcome.
	Detail string `json:"detail,omitempty"`
	// Value is the kind-specific number: duration in nanoseconds for span
	// ends, a cache entry size, an incumbent cost.
	Value int64 `json:"value,omitempty"`
}

// Recorder is the lock-free ring. Construct with New; the zero value and
// nil are valid no-op recorders.
type Recorder struct {
	slots []atomic.Pointer[Event]
	mask  uint64
	head  atomic.Uint64

	// DumpPath, when non-empty, is where AutoDump writes the JSONL
	// journal. Set once at construction time, before the recorder is
	// shared.
	DumpPath string
}

// DefaultCapacity holds roughly the last few minutes of a busy suite run
// (spans are per stage, incumbents per improvement) in ~1 MiB.
const DefaultCapacity = 8192

// New returns a recorder holding the most recent capacity events
// (rounded up to a power of two; capacity <= 0 uses DefaultCapacity).
func New(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	n := 1 << bits.Len64(uint64(capacity-1))
	return &Recorder{slots: make([]atomic.Pointer[Event], n), mask: uint64(n - 1)}
}

// Record appends one event to the ring, stamping its sequence number and
// (when unset) its time. Safe for any number of concurrent writers; a
// nil or zero-value recorder drops the event.
func (r *Recorder) Record(ev Event) {
	if r == nil || len(r.slots) == 0 {
		return
	}
	seq := r.head.Add(1) - 1
	ev.Seq = seq
	if ev.Time.IsZero() {
		ev.Time = time.Now()
	}
	r.slots[seq&r.mask].Store(&ev)
}

// Snapshot returns the ring's surviving events in sequence order. Under
// concurrent writers the snapshot is the usual flight-recorder
// approximation: every returned event is internally consistent
// (published atomically as a whole), but the set may miss events being
// overwritten during the scan.
func (r *Recorder) Snapshot() []Event {
	if r == nil || len(r.slots) == 0 {
		return nil
	}
	out := make([]Event, 0, len(r.slots))
	for i := range r.slots {
		if ev := r.slots[i].Load(); ev != nil {
			out = append(out, *ev)
		}
	}
	// Sequence numbers are unique, so sorting restores order after the
	// unordered slot scan (the scan yields at most two sorted runs).
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// WriteJSONL writes the snapshot as JSON Lines: one event per line in
// sequence order. A nil recorder writes nothing.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	for _, ev := range r.Snapshot() {
		line, err := json.Marshal(ev)
		if err != nil {
			return fmt.Errorf("flight: marshal event %d: %w", ev.Seq, err)
		}
		if _, err := w.Write(append(line, '\n')); err != nil {
			return err
		}
	}
	return nil
}

// DumpFile atomically writes the snapshot as a JSONL file at path via
// the durable-I/O layer (temp + fsync + rename), so the journal survives
// the very crash it is documenting.
func (r *Recorder) DumpFile(ctx context.Context, path string) error {
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		return err
	}
	return safeio.WriteFileAtomic(ctx, path, buf.Bytes(), 0o644)
}

// AutoDump records a KindDump event naming the trigger and writes the
// journal to DumpPath. It is the hook the pipeline calls on recovered
// panics, failed runs, soak failures and SIGQUIT; with no recorder or no configured
// path it is a no-op returning "". The write deliberately uses a
// context detached from the (likely dying) run.
func (r *Recorder) AutoDump(reason string) (string, error) {
	if r == nil || r.DumpPath == "" {
		return "", nil
	}
	r.Record(Event{Kind: KindDump, Name: "flight", Detail: reason})
	if err := r.DumpFile(context.Background(), r.DumpPath); err != nil {
		return "", err
	}
	return r.DumpPath, nil
}
