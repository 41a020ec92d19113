// Package chaos is the pipeline's deterministic fault injector. It
// exists so the error paths — cancellation, panic isolation, typed
// degradation, resume from the result cache — are exercised
// systematically instead of only by hand-written unit tests, in the
// spirit of FoundationDB-style simulation testing.
//
// Stages declare *named injection points* ("cache.write", "ilp.node",
// …) by registering them at package init and consulting the
// injector at the point during execution. An *Injector travels in the
// context.Context exactly like obs.Observer: a nil injector (no chaos
// attached, the production default) is fully valid and every operation
// on it is a cheap no-op, so instrumented code never branches on "is
// chaos enabled".
//
// Determinism: whether the n-th call at a point fires, which fault kind
// it injects, and the fault's parameters are all pure functions of
// (seed, point name, n) — a SplitMix64 hash chain, no shared PRNG
// stream. Two runs with the same seed over the same (deterministic)
// pipeline inject the same faults; a failing soak seed therefore
// replays from the seed alone. Under concurrency the per-point call
// counter still hands out the same decision *sequence*; which goroutine
// draws which decision may vary with scheduling, but the multiset of
// injected faults per point does not.
//
// Fault kinds: typed errors (exercising stage attribution), panics
// (exercising the worker-pool isolation), bounded delays (exercising
// budget and timeout paths), and — at data points only — short writes
// and bit flips (exercising the safeio durability contract: CRC-stamped
// records must be detected as corrupt and recomputed on resume, never
// served).
package chaos

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fastmon/internal/fmerr"
)

// Kind is the class of fault an injection point can produce.
type Kind uint8

const (
	// KindError returns a typed *Injected error from the point.
	KindError Kind = iota + 1
	// KindPanic panics with the *Injected as panic value, exercising the
	// worker-pool panic isolation paths.
	KindPanic
	// KindDelay sleeps a bounded, seed-derived duration and then lets
	// the call proceed normally.
	KindDelay
	// KindShortWrite (data points only) truncates the record being
	// written and fails the write — a torn write with a crash.
	KindShortWrite
	// KindBitFlip (data points only) flips one bit of the record and
	// lets the write succeed — silent corruption that only a content
	// checksum can catch later.
	KindBitFlip
)

func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindPanic:
		return "panic"
	case KindDelay:
		return "delay"
	case KindShortWrite:
		return "shortwrite"
	case KindBitFlip:
		return "bitflip"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Injected is the typed fault produced at an injection point: the error
// returned by KindError, the panic value raised by KindPanic, and the
// error reported alongside a KindShortWrite. It names the point, the
// pipeline stage the point belongs to, and the per-point call sequence
// number that fired — enough to attribute and replay the fault.
type Injected struct {
	Point string
	Stage fmerr.Stage
	Kind  Kind
	Seq   uint64
}

func (e *Injected) Error() string {
	return fmt.Sprintf("chaos: injected %s at %s (call %d)", e.Kind, e.Point, e.Seq)
}

// --- registry -------------------------------------------------------------

var (
	regMu  sync.RWMutex
	regPts = map[string]fmerr.Stage{}
)

// Register declares an injection point and the pipeline stage its faults
// attribute to. It is called from package-level var initializers at every
// instrumented site, so tests can enumerate every point compiled into the
// binary. Registering the same name again is idempotent; it returns the
// name so call sites can bind it to a variable.
func Register(name string, stage fmerr.Stage) string {
	regMu.Lock()
	if _, ok := regPts[name]; !ok {
		regPts[name] = stage
	}
	regMu.Unlock()
	return name
}

// Points returns every registered injection point name, sorted.
func Points() []string {
	regMu.RLock()
	out := make([]string, 0, len(regPts))
	for n := range regPts {
		out = append(out, n)
	}
	regMu.RUnlock()
	sort.Strings(out)
	return out
}

// StageOfPoint returns the stage a point was registered under ("" for
// unregistered names).
func StageOfPoint(name string) fmerr.Stage {
	regMu.RLock()
	defer regMu.RUnlock()
	return regPts[name]
}

// --- configuration --------------------------------------------------------

// Config parameterizes an Injector.
type Config struct {
	// Seed drives every injection decision. Same seed, same pipeline →
	// same faults.
	Seed int64
	// Rate is the default per-call injection probability in [0, 1].
	Rate float64
	// Rates overrides the probability per point name (0 disables the
	// point entirely).
	Rates map[string]float64
	// Budget bounds the total number of injected faults across all
	// points (0 = unlimited). Per-run budgets keep a soak iteration from
	// drowning in faults at high rates.
	Budget int64
	// MaxDelay bounds KindDelay sleeps (default 2ms).
	MaxDelay time.Duration
	// Kinds are the fault kinds drawn at control points (Point); default
	// {Error, Panic, Delay}.
	Kinds []Kind
	// DataKinds are the fault kinds drawn at data points (Mutate);
	// default {ShortWrite, BitFlip}.
	DataKinds []Kind
}

func (c Config) defaults() Config {
	if c.MaxDelay <= 0 {
		c.MaxDelay = 2 * time.Millisecond
	}
	if len(c.Kinds) == 0 {
		c.Kinds = []Kind{KindError, KindPanic, KindDelay}
	}
	if len(c.DataKinds) == 0 {
		c.DataKinds = []Kind{KindShortWrite, KindBitFlip}
	}
	return c
}

// --- injector -------------------------------------------------------------

// Injector makes the injection decisions. All methods are safe for
// concurrent use and safe on a nil receiver (never inject).
type Injector struct {
	cfg   Config
	total atomic.Int64 // faults injected so far (vs. cfg.Budget)

	mu     sync.Mutex
	points map[string]*pointState
}

type pointState struct {
	calls atomic.Uint64
	fired atomic.Int64
}

// New returns an injector for the configuration.
func New(cfg Config) *Injector {
	return &Injector{cfg: cfg.defaults(), points: map[string]*pointState{}}
}

// Fired returns the total number of faults injected so far (0 for nil).
func (in *Injector) Fired() int64 {
	if in == nil {
		return 0
	}
	return in.total.Load()
}

// Snapshot returns the per-point injected-fault counts (nil for a nil
// injector or when nothing fired).
func (in *Injector) Snapshot() map[string]int64 {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	var out map[string]int64
	for name, ps := range in.points {
		if n := ps.fired.Load(); n > 0 {
			if out == nil {
				out = map[string]int64{}
			}
			out[name] = n
		}
	}
	return out
}

func (in *Injector) state(name string) *pointState {
	in.mu.Lock()
	ps := in.points[name]
	if ps == nil {
		ps = &pointState{}
		in.points[name] = ps
	}
	in.mu.Unlock()
	return ps
}

// splitmix64 is the SplitMix64 output function: a bijective avalanche
// mix, so chaining it over (seed, point hash, call index) yields
// independent-looking decision streams per point.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fnv64 hashes the point name (FNV-1a).
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// unit maps a hash to [0, 1).
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// decide makes the deterministic injection decision for the next call at
// the point: fire or not, and with which kind from the given menu. The
// returned seq is the per-point call index consumed.
func (in *Injector) decide(name string, kinds []Kind) (kind Kind, seq uint64, fire bool) {
	ps := in.state(name)
	seq = ps.calls.Add(1) - 1
	rate := in.cfg.Rate
	if r, ok := in.cfg.Rates[name]; ok {
		rate = r
	}
	if rate <= 0 {
		return 0, seq, false
	}
	h := splitmix64(uint64(in.cfg.Seed) ^ splitmix64(fnv64(name)^seq))
	if unit(h) >= rate {
		return 0, seq, false
	}
	// Budget check after the probability draw so the decision stream up
	// to the budget is identical whatever the budget.
	if in.cfg.Budget > 0 && in.total.Add(1) > in.cfg.Budget {
		in.total.Add(-1)
		return 0, seq, false
	}
	if in.cfg.Budget <= 0 {
		in.total.Add(1)
	}
	ps.fired.Add(1)
	kind = kinds[splitmix64(h)%uint64(len(kinds))]
	return kind, seq, true
}

// sleep blocks for the seed-derived duration, honoring cancellation.
func (in *Injector) sleep(ctx context.Context, h uint64) {
	d := time.Duration(h % uint64(in.cfg.MaxDelay))
	if d <= 0 {
		d = in.cfg.MaxDelay / 2
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// Point is a control-flow injection point: it may return a typed
// *Injected error, panic with one, or sleep briefly before returning
// nil. Instrumented code calls it at stage boundaries and wraps a
// returned error like any other failure of that operation.
func (in *Injector) Point(ctx context.Context, name string) error {
	if in == nil {
		return nil
	}
	kind, seq, fire := in.decide(name, in.cfg.Kinds)
	if !fire {
		return nil
	}
	inj := &Injected{Point: name, Stage: StageOfPoint(name), Kind: kind, Seq: seq}
	switch kind {
	case KindPanic:
		panic(inj)
	case KindDelay:
		in.sleep(ctx, splitmix64(fnv64(name)^seq^uint64(in.cfg.Seed)))
		return nil
	default:
		return inj
	}
}

// Disturb is a Point restricted to non-error faults (panic, delay) for
// call sites with no error return path — the branch-and-bound node
// expansion and incumbent publication inside the solvers.
func (in *Injector) Disturb(ctx context.Context, name string) {
	if in == nil {
		return
	}
	kind, seq, fire := in.decide(name, []Kind{KindPanic, KindDelay})
	if !fire {
		return
	}
	switch kind {
	case KindPanic:
		panic(&Injected{Point: name, Stage: StageOfPoint(name), Kind: KindPanic, Seq: seq})
	default:
		in.sleep(ctx, splitmix64(fnv64(name)^seq^uint64(in.cfg.Seed)))
	}
}

// Mutate is a data injection point: given the bytes about to be written
// durably, it may truncate them (returning the short prefix plus a typed
// error — a torn write whose caller knows it failed) or flip a single
// bit (returning corrupted bytes and no error — silent corruption that
// only the record checksum catches later). With no fault the input is
// returned unchanged.
func (in *Injector) Mutate(name string, data []byte) ([]byte, error) {
	if in == nil || len(data) == 0 {
		return data, nil
	}
	kind, seq, fire := in.decide(name, in.cfg.DataKinds)
	if !fire {
		return data, nil
	}
	h := splitmix64(uint64(in.cfg.Seed) ^ fnv64(name) ^ (seq + 0x5bf0))
	inj := &Injected{Point: name, Stage: StageOfPoint(name), Kind: kind, Seq: seq}
	switch kind {
	case KindShortWrite:
		return append([]byte(nil), data[:h%uint64(len(data))]...), inj
	case KindBitFlip:
		out := append([]byte(nil), data...)
		i := h % uint64(len(out))
		out[i] ^= 1 << (splitmix64(h) % 8)
		return out, nil
	case KindError:
		return data, inj
	default:
		return data, nil
	}
}

// --- context plumbing -----------------------------------------------------

type chaosKey struct{}

// With returns a context carrying the injector.
func With(ctx context.Context, in *Injector) context.Context {
	return context.WithValue(ctx, chaosKey{}, in)
}

// From returns the context's injector, or nil when none is attached. A
// nil *Injector is valid: it never injects.
func From(ctx context.Context) *Injector {
	in, _ := ctx.Value(chaosKey{}).(*Injector)
	return in
}

// Point consults the context's injector (no-op without one).
func Point(ctx context.Context, name string) error {
	return From(ctx).Point(ctx, name)
}

// Disturb consults the context's injector (no-op without one).
func Disturb(ctx context.Context, name string) {
	From(ctx).Disturb(ctx, name)
}

// Mutate consults the context's injector (identity without one).
func Mutate(ctx context.Context, name string, data []byte) ([]byte, error) {
	return From(ctx).Mutate(name, data)
}

// StageOf maps a recovered panic value or error chain to the pipeline
// stage of the chaos fault inside it, falling back to the given default.
// Panic-isolation layers use it so an injected solver panic is
// attributed to the solver stage, not to the layer that recovered it.
func StageOf(v any, def fmerr.Stage) fmerr.Stage {
	if inj, ok := v.(*Injected); ok && inj.Stage != "" {
		return inj.Stage
	}
	if err, ok := v.(error); ok {
		var inj *Injected
		if AsInjected(err, &inj) && inj.Stage != "" {
			return inj.Stage
		}
	}
	return def
}

// AsInjected reports whether err's chain contains an *Injected, storing
// it in target.
func AsInjected(err error, target **Injected) bool {
	return errors.As(err, target)
}
