package sim

import (
	"fastmon/internal/circuit"
	"fastmon/internal/tunit"
)

// Stats counts the work the event-driven fault simulator performs. Workers
// accumulate into a private Stats each and roll the totals into shared
// telemetry once, so the hot path never touches an atomic.
type Stats struct {
	// Events is the number of gate re-evaluations whose output waveform
	// differed from the fault-free baseline (an event propagated).
	Events int64
	// Converged counts re-evaluations whose output matched the baseline:
	// the fault effect died there and propagation was cut early.
	Converged int64
	// EarlyExits counts injections whose site waveform already equals the
	// baseline (the fault is not activated by the pattern), resolved
	// without touching the cone at all.
	EarlyExits int64
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.Events += o.Events
	s.Converged += o.Converged
	s.EarlyExits += o.EarlyExits
}

// Scratch is the per-worker arena of the event-driven fault simulator: the
// faulty-waveform overlay and the toggle arena its waveforms live in, the
// level-ordered worklist and the input buffer. A Scratch is sized to one
// engine's circuit and must not be shared between goroutines; obtain one
// with NewScratch and reuse it across faults — FaultSimScratch resets only
// the entries it touched, so the cost per fault is proportional to the
// disturbed region, not the circuit.
type Scratch struct {
	faulty  []Waveform        // overlay: valid where dirty[id]
	dirty   []bool            // gate waveform differs from baseline
	touched []int             // dirty gate ids, for O(touched) reset
	wl      *circuit.Worklist // event queue, empty between simulations
	ins     []Waveform        // fanin gather buffer
	// arena holds the toggles of the fault-site and overlay waveforms of
	// one simulation; reset rewinds it, so they live until the next one.
	arena []tunit.Time
}

// NewScratch allocates a simulation arena for the engine's circuit.
func (e *Engine) NewScratch() *Scratch {
	n := len(e.C.Gates)
	return &Scratch{
		faulty: make([]Waveform, n),
		dirty:  make([]bool, n),
		wl:     e.C.NewWorklist(),
		ins:    make([]Waveform, 0, 8),
	}
}

// reset clears the entries touched by one fault simulation and rewinds the
// toggle arena. The worklist is already clean: it is always fully drained.
func (sc *Scratch) reset() {
	for _, id := range sc.touched {
		sc.dirty[id] = false
	}
	sc.touched = sc.touched[:0]
	sc.arena = sc.arena[:0]
}

// delayed appends the fault-site copy of w — its rising or falling
// transitions delayed by the injection's Delta, then filtered inertially
// with minPulse — to the arena.
func (sc *Scratch) delayed(w Waveform, inj Injection, minPulse tunit.Time) Waveform {
	start := len(sc.arena)
	if inj.Delta > 0 {
		sc.arena = w.appendDelayed(sc.arena, inj.Delta, inj.Rising)
	} else {
		// No physical fault has Delta <= 0; the property tests inject such
		// shifts through the general path.
		w = w.DelayTransitions(inj.Delta, inj.Rising)
		sc.arena = append(sc.arena, w.T...)
	}
	var d Waveform
	d, sc.arena = seal(w.Init, sc.arena, start, minPulse)
	return d
}

func (sc *Scratch) markDirty(id int, w Waveform) {
	sc.dirty[id] = true
	sc.faulty[id] = w
	sc.touched = append(sc.touched, id)
}

// scratchPool hands out arenas for callers that use the plain FaultSim
// entry point; the detection-range driver holds one Scratch per worker
// instead.
func (e *Engine) getScratch() *Scratch {
	if sc, ok := e.scratchPool.Get().(*Scratch); ok {
		return sc
	}
	return e.NewScratch()
}

func (e *Engine) putScratch(sc *Scratch) { e.scratchPool.Put(sc) }

// BaselineBuf is a reusable buffer of fault-free waveforms: W is indexed
// by gate ID, and the toggles of its waveforms live in an arena the buffer
// owns. They stay valid until the buffer is refilled or released.
type BaselineBuf struct {
	W     []Waveform
	arena []tunit.Time
}

// AcquireBaseline returns a baseline buffer for BaselineInto, recycled
// through the engine's pool. Pooling the fault-free baselines and their
// arenas kills the dominant per-pattern allocation of detection-range
// computation. Release with ReleaseBaseline when done.
func (e *Engine) AcquireBaseline() *BaselineBuf {
	if b, ok := e.basePool.Get().(*BaselineBuf); ok {
		return b
	}
	return &BaselineBuf{W: make([]Waveform, len(e.C.Gates))}
}

// ReleaseBaseline returns a buffer obtained from AcquireBaseline to the
// pool. The caller must not use the buffer or its waveforms afterwards.
func (e *Engine) ReleaseBaseline(b *BaselineBuf) {
	if len(b.W) == len(e.C.Gates) {
		e.basePool.Put(b)
	}
}
