package sim

import (
	"context"
	"fmt"
	"sort"
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

	taps       []circuit.Tap
	tapsByGate map[int][]int // observed gate -> tap indices

	scratchPool sync.Pool // *Scratch
	basePool    sync.Pool // []Waveform, len == len(C.Gates)
}

// NewEngine builds a simulation engine; the inertial pulse threshold comes
// from the cell library.
func NewEngine(c *circuit.Circuit, a *cell.Annotation) *Engine {
	e := &Engine{C: c, A: a, MinPulse: a.Lib.MinPulse(), taps: c.Taps(),
		tapsByGate: map[int][]int{}}
	for i, tap := range e.taps {
		e.tapsByGate[tap.Gate] = append(e.tapsByGate[tap.Gate], i)
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
	wf := make([]Waveform, len(e.C.Gates))
	if err := e.baselineInto(ctx, p, wf); err != nil {
		return nil, err
	}
	return wf, nil
}

func (e *Engine) baselineInto(ctx context.Context, p Pattern, wf []Waveform) error {
	src := e.C.Sources()
	if len(p.V1) != len(src) || len(p.V2) != len(src) {
		return fmt.Errorf("sim: pattern has %d/%d values for %d sources", len(p.V1), len(p.V2), len(src))
	}
	if len(wf) != len(e.C.Gates) {
		return fmt.Errorf("sim: baseline buffer has %d slots for %d gates", len(wf), len(e.C.Gates))
	}
	for i, id := range src {
		wf[id] = Step(p.V1[i], p.V2[i], e.launchTime(id))
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
		wf[id] = EvalGate(g.Kind, ins, e.A.Delay[id], e.MinPulse)
	}
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
		fw = base[g].DelayTransitions(inj.Delta, inj.Rising).FilterPulses(e.MinPulse)
	default:
		if inj.Pin >= len(gate.Fanin) || gate.Kind == circuit.Input || gate.Kind == circuit.DFF {
			return nil
		}
		ins := sc.ins[:0]
		for _, f := range gate.Fanin {
			ins = append(ins, base[f])
		}
		ins[inj.Pin] = ins[inj.Pin].DelayTransitions(inj.Delta, inj.Rising)
		sc.ins = ins[:0]
		fw = EvalGate(gate.Kind, ins, e.A.Delay[g], e.MinPulse)
	}
	if fw.Equal(base[g]) {
		if st != nil {
			st.EarlyExits++
		}
		return nil
	}
	sc.markDirty(g, fw)

	// Seed the worklist with the fanouts of the injection site and drain
	// it in level order: every gate is evaluated once, after all of its
	// disturbed fanins, and propagation stops where a gate's recomputed
	// waveform equals its baseline.
	sc.wl.PushFanout(g)
	evaluated := 0
	for {
		id, ok := sc.wl.Pop()
		if !ok {
			break
		}
		evaluated++
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
		nw := EvalGate(cg.Kind, ins, e.A.Delay[id], e.MinPulse)
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
	if st != nil {
		st.Pruned += int64(len(e.C.FanoutCone(g)) - evaluated)
	}

	// Only gates that still differ from the baseline can be detected;
	// everything outside sc.touched is bit-identical to the fault-free
	// simulation by construction.
	var out []Detection
	for _, fg := range sc.touched {
		tapIdxs, ok := e.tapsByGate[fg]
		if !ok {
			continue
		}
		diff := base[fg].Diff(sc.faulty[fg], horizon)
		if diff.Empty() {
			continue
		}
		for _, ti := range tapIdxs {
			out = append(out, Detection{Tap: ti, Diff: diff})
		}
	}
	sc.reset()
	sort.Slice(out, func(i, j int) bool { return out[i].Tap < out[j].Tap })
	return out
}
