package sim

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"

	"fastmon/internal/cell"
	"fastmon/internal/circuit"
	"fastmon/internal/fmerr"
	"fastmon/internal/interval"
	"fastmon/internal/tunit"
)

// Pattern is a two-vector (launch/capture) test: V1 is applied and settled,
// then at t=0 the sources switch to V2. Both vectors are indexed by the
// circuit's source order (primary inputs first, then scan flip-flops) —
// the enhanced-scan pattern-pair model the ATPG substrate generates.
type Pattern struct {
	V1, V2 []bool
}

// Injection describes a small delay fault for simulation purposes: the
// rising (or falling) transitions of the signal at the site are delayed by
// Delta. Pin -1 places the fault on the gate output, otherwise on the
// given input pin of the gate.
type Injection struct {
	Gate   int
	Pin    int // -1 = output pin
	Rising bool
	Delta  tunit.Time
}

func (in Injection) String() string {
	edge := "str" // slow-to-rise
	if !in.Rising {
		edge = "stf"
	}
	if in.Pin < 0 {
		return fmt.Sprintf("g%d/out/%s+%s", in.Gate, edge, in.Delta)
	}
	return fmt.Sprintf("g%d/in%d/%s+%s", in.Gate, in.Pin, edge, in.Delta)
}

// Engine simulates one annotated circuit. It caches the tap table and the
// per-gate tap observers so that fault simulation touches only the fanout
// cone of the injection site, and pools the scratch arenas and baseline
// buffers of the event-driven fast path.
type Engine struct {
	C        *circuit.Circuit
	A        *cell.Annotation
	MinPulse tunit.Time

	src  []int // C.Sources(), which allocates per call
	taps []circuit.Tap
	// The taps observing gate g are tapIdx[tapOff[g]:tapOff[g+1]], in
	// ascending order.
	tapOff, tapIdx []int

	scratchPool sync.Pool // *Scratch
	basePool    sync.Pool // *BaselineBuf sized to C
}

// NewEngine builds a simulation engine; the inertial pulse threshold comes
// from the cell library.
func NewEngine(c *circuit.Circuit, a *cell.Annotation) *Engine {
	e := &Engine{C: c, A: a, MinPulse: a.Lib.MinPulse(), src: c.Sources(), taps: c.Taps()}
	e.tapOff = make([]int, len(c.Gates)+1)
	for _, tap := range e.taps {
		e.tapOff[tap.Gate+1]++
	}
	for g := 1; g < len(e.tapOff); g++ {
		e.tapOff[g] += e.tapOff[g-1]
	}
	e.tapIdx = make([]int, len(e.taps))
	next := slices.Clone(e.tapOff[:len(c.Gates)])
	for i, tap := range e.taps {
		e.tapIdx[next[tap.Gate]] = i
		next[tap.Gate]++
	}
	return e
}

// Taps returns the observation points of the engine's circuit, in
// canonical order.
func (e *Engine) Taps() []circuit.Tap { return e.taps }

// launchTime returns the time at which source gate id switches from V1 to
// V2: primary inputs switch with the launch edge at t=0, scan flip-flop
// outputs after their clock-to-output delay.
func (e *Engine) launchTime(id int) tunit.Time {
	if e.C.Gates[id].Kind == circuit.DFF {
		return e.A.Lib.ClkToQ
	}
	return 0
}

// Baseline computes the fault-free waveform of every gate for the pattern
// pair. The returned slice is indexed by gate ID.
func (e *Engine) Baseline(p Pattern) ([]Waveform, error) {
	return e.BaselineContext(context.Background(), p)
}

// BaselineContext is Baseline with cancellation: the context is polled
// every few gates of the topological evaluation so a cancelled caller
// stops mid-circuit instead of after it. The returned slice is freshly
// allocated and owned by the caller; hot loops that recycle buffers use
// AcquireBaseline/BaselineInto instead.
func (e *Engine) BaselineContext(ctx context.Context, p Pattern) ([]Waveform, error) {
	b := &BaselineBuf{W: make([]Waveform, len(e.C.Gates))}
	if err := e.BaselineInto(ctx, p, b); err != nil {
		return nil, err
	}
	return b.W, nil
}

// BaselineInto computes the fault-free waveforms of every gate for the
// pattern pair into b, which must have been obtained from AcquireBaseline
// (or hold len(Gates) waveforms). The toggles go to b's arena, so the
// waveforms b held before are overwritten. Cancellation matches
// BaselineContext.
func (e *Engine) BaselineInto(ctx context.Context, p Pattern, b *BaselineBuf) error {
	src := e.src
	if len(p.V1) != len(src) || len(p.V2) != len(src) {
		return fmt.Errorf("sim: pattern has %d/%d values for %d sources", len(p.V1), len(p.V2), len(src))
	}
	wf := b.W
	if len(wf) != len(e.C.Gates) {
		return fmt.Errorf("sim: baseline buffer has %d slots for %d gates", len(wf), len(e.C.Gates))
	}
	arena := b.arena[:0]
	for i, id := range src {
		if p.V1[i] == p.V2[i] {
			wf[id] = Const(p.V1[i])
			continue
		}
		arena = append(arena, e.launchTime(id))
		n := len(arena)
		wf[id] = Waveform{Init: p.V1[i], T: arena[n-1 : n : n]}
	}
	ins := make([]Waveform, 0, 8)
	for n, id := range e.C.Topo() {
		if n&255 == 0 {
			if err := ctx.Err(); err != nil {
				return fmerr.Wrap(fmerr.StageSim, "baseline", err)
			}
		}
		g := &e.C.Gates[id]
		ins = ins[:0]
		for _, f := range g.Fanin {
			ins = append(ins, wf[f])
		}
		wf[id], arena = evalGate(g.Kind, ins, e.A.Delay[id], e.MinPulse, arena)
	}
	b.arena = arena
	return nil
}

// Detection is the result of simulating one fault under one pattern: the
// per-tap interval sets where the faulty output value differs from the
// fault-free one. Only taps with non-empty difference appear.
type Detection struct {
	Tap  int // tap index
	Diff interval.Set
}

// FaultSim simulates the injection against precomputed fault-free
// waveforms and returns the detection intervals at every observation point
// the fault reaches, clipped to [0, horizon). The baseline slice must come
// from Baseline on the same engine.
//
// The implementation is event-driven: only the injection site is seeded,
// and recomputation propagates through a level-ordered worklist that stops
// as soon as a gate's recomputed waveform equals its baseline. Gates the
// fault effect never reaches are never evaluated. FaultSimNaive is the
// slow reference it is differentially tested against.
func (e *Engine) FaultSim(base []Waveform, inj Injection, horizon tunit.Time) []Detection {
	sc := e.getScratch()
	dets := e.FaultSimScratch(base, inj, horizon, sc, nil)
	e.putScratch(sc)
	return dets
}

// FaultSimScratch is FaultSim with a caller-owned scratch arena and
// optional work counters: the detection-range driver gives every worker
// one Scratch and one Stats so the hot loop performs no per-fault
// allocation and no atomic traffic.
func (e *Engine) FaultSimScratch(base []Waveform, inj Injection, horizon tunit.Time, sc *Scratch, st *Stats) []Detection {
	g := inj.Gate
	gate := &e.C.Gates[g]

	var fw Waveform
	switch {
	case inj.Pin < 0:
		fw = sc.delayed(base[g], inj, e.MinPulse)
	default:
		if inj.Pin >= len(gate.Fanin) || gate.Kind == circuit.Input || gate.Kind == circuit.DFF {
			return nil
		}
		ins := sc.ins[:0]
		for _, f := range gate.Fanin {
			ins = append(ins, base[f])
		}
		ins[inj.Pin] = sc.delayed(ins[inj.Pin], inj, 0)
		sc.ins = ins[:0]
		fw, sc.arena = evalGate(gate.Kind, ins, e.A.Delay[g], e.MinPulse, sc.arena)
	}
	if fw.Equal(base[g]) {
		if st != nil {
			st.EarlyExits++
		}
		sc.reset()
		return nil
	}
	sc.markDirty(g, fw)

	// Seed the worklist with the fanouts of the injection site and drain
	// it in level order: every gate is evaluated once, after all of its
	// disturbed fanins, and propagation stops where a gate's recomputed
	// waveform equals its baseline.
	sc.wl.PushFanout(g)
	for {
		id, ok := sc.wl.Pop()
		if !ok {
			break
		}
		cg := &e.C.Gates[id]
		ins := sc.ins[:0]
		for _, f := range cg.Fanin {
			if sc.dirty[f] {
				ins = append(ins, sc.faulty[f])
			} else {
				ins = append(ins, base[f])
			}
		}
		sc.ins = ins[:0]
		var nw Waveform
		nw, sc.arena = evalGate(cg.Kind, ins, e.A.Delay[id], e.MinPulse, sc.arena)
		if nw.Equal(base[id]) {
			if st != nil {
				st.Converged++
			}
			continue
		}
		if st != nil {
			st.Events++
		}
		sc.markDirty(id, nw)
		sc.wl.PushFanout(id)
	}
	// Only gates that still differ from the baseline can be detected;
	// everything outside sc.touched is bit-identical to the fault-free
	// simulation by construction.
	var out []Detection
	for _, fg := range sc.touched {
		taps := e.tapIdx[e.tapOff[fg]:e.tapOff[fg+1]]
		if len(taps) == 0 {
			continue
		}
		diff := base[fg].Diff(sc.faulty[fg], horizon)
		if diff.Empty() {
			continue
		}
		for _, ti := range taps {
			out = append(out, Detection{Tap: ti, Diff: diff})
		}
	}
	sc.reset()
	slices.SortFunc(out, func(a, b Detection) int { return cmp.Compare(a.Tap, b.Tap) })
	return out
}
