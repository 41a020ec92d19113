package sim

import (
	"context"

	"fastmon/internal/circuit"
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
	// Pruned counts fanout-cone gates that were never reached by an event
	// — the re-simulation work the event-driven engine skipped relative to
	// a full cone walk.
	Pruned int64
	// EarlyExits counts injections whose site waveform already equals the
	// baseline (the fault is not activated by the pattern), resolved
	// without touching the cone at all.
	EarlyExits int64
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.Events += o.Events
	s.Converged += o.Converged
	s.Pruned += o.Pruned
	s.EarlyExits += o.EarlyExits
}

// Scratch is the per-worker arena of the event-driven fault simulator: the
// faulty-waveform overlay, the level-ordered worklist and the input
// buffer. A Scratch is sized to one engine's circuit and must not be shared
// between goroutines; obtain one with NewScratch and reuse it across
// faults — FaultSimScratch resets only the entries it touched, so the cost
// per fault is proportional to the disturbed region, not the circuit.
type Scratch struct {
	faulty  []Waveform        // overlay: valid where dirty[id]
	dirty   []bool            // gate waveform differs from baseline
	touched []int             // dirty gate ids, for O(touched) reset
	wl      *circuit.Worklist // event queue, empty between simulations
	ins     []Waveform        // fanin gather buffer
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

// reset clears the entries touched by one fault simulation. The worklist
// is already clean: it is always fully drained.
func (sc *Scratch) reset() {
	for _, id := range sc.touched {
		sc.dirty[id] = false
		sc.faulty[id] = Waveform{} // drop toggle-slice references for GC
	}
	sc.touched = sc.touched[:0]
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

// AcquireBaseline returns a gate-indexed waveform buffer suitable for
// BaselineInto, recycled through the engine's pool. Pooling the fault-free
// baselines kills the dominant per-pattern allocation of detection-range
// computation. Release with ReleaseBaseline when done.
func (e *Engine) AcquireBaseline() []Waveform {
	if wf, ok := e.basePool.Get().([]Waveform); ok {
		return wf
	}
	return make([]Waveform, len(e.C.Gates))
}

// ReleaseBaseline returns a buffer obtained from AcquireBaseline to the
// pool. The caller must not use the slice afterwards.
func (e *Engine) ReleaseBaseline(wf []Waveform) {
	if len(wf) == len(e.C.Gates) {
		e.basePool.Put(wf) //nolint:staticcheck // slice header copy is fine here
	}
}

// BaselineInto computes the fault-free waveforms of every gate for the
// pattern pair into wf, which must have been obtained from AcquireBaseline
// (or have length len(Gates)). Cancellation matches BaselineContext.
func (e *Engine) BaselineInto(ctx context.Context, p Pattern, wf []Waveform) error {
	return e.baselineInto(ctx, p, wf)
}
