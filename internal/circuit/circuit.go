// Package circuit provides the gate-level netlist model used by all of
// fastmon: parsing and writing ISCAS-style .bench netlists, a deterministic
// synthetic benchmark generator, and the topological utilities (levelized
// order, tap reachability, full-scan combinational view, the level-ordered
// event Worklist) that static timing analysis, ATPG and both fault
// simulators are built on.
package circuit

import "fmt"

// Kind enumerates the supported gate primitives. The set matches what the
// ISCAS'89 .bench format and typical 45nm standard-cell netlists need.
type Kind uint8

const (
	// Input is a primary input; it has no fanin.
	Input Kind = iota
	// Buf is a non-inverting buffer.
	Buf
	// Not is an inverter.
	Not
	// And is an n-input AND gate.
	And
	// Nand is an n-input NAND gate.
	Nand
	// Or is an n-input OR gate.
	Or
	// Nor is an n-input NOR gate.
	Nor
	// Xor is an n-input XOR (odd parity) gate.
	Xor
	// Xnor is an n-input XNOR (even parity) gate.
	Xnor
	// DFF is a scan flip-flop: fanin[0] is the D input (a pseudo primary
	// output in the full-scan view); the gate's own output is Q (a pseudo
	// primary input).
	DFF
	numKinds
)

var kindNames = [numKinds]string{
	Input: "INPUT", Buf: "BUF", Not: "NOT", And: "AND", Nand: "NAND",
	Or: "OR", Nor: "NOR", Xor: "XOR", Xnor: "XNOR", DFF: "DFF",
}

// String returns the .bench-style name of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// KindFromString parses a .bench gate keyword (case-insensitive variants
// are handled by the parser, which upper-cases first).
func KindFromString(s string) (Kind, bool) {
	for k, name := range kindNames {
		if name == s {
			return Kind(k), true
		}
	}
	// Common aliases found in distributed .bench files.
	switch s {
	case "BUFF":
		return Buf, true
	case "INV":
		return Not, true
	}
	return 0, false
}

// Inverting reports whether the gate kind inverts the "controlled" output
// polarity (NAND/NOR/NOT/XNOR).
func (k Kind) Inverting() bool {
	switch k {
	case Not, Nand, Nor, Xnor:
		return true
	}
	return false
}

// Eval computes the boolean function of the kind over the given inputs.
// It panics for Input and DFF, which have no combinational function.
func (k Kind) Eval(in []bool) bool {
	switch k {
	case Buf:
		return in[0]
	case Not:
		return !in[0]
	case And, Nand:
		v := true
		for _, b := range in {
			v = v && b
		}
		if k == Nand {
			return !v
		}
		return v
	case Or, Nor:
		v := false
		for _, b := range in {
			v = v || b
		}
		if k == Nor {
			return !v
		}
		return v
	case Xor, Xnor:
		v := false
		for _, b := range in {
			v = v != b
		}
		if k == Xnor {
			return !v
		}
		return v
	}
	panic("circuit: Eval on non-combinational kind " + k.String())
}

// EvalCount computes the same function as Eval from the gate's arity n and
// the number of its inputs that are 1: every combinational kind is
// symmetric in its inputs, so the count decides the output. Buf and Not
// have arity 1. An event-driven evaluator keeps a running count as pins
// toggle instead of rescanning a []bool. It panics for Input and DFF.
func (k Kind) EvalCount(n, ones int) bool {
	switch k {
	case Buf:
		return ones != 0
	case Not:
		return ones == 0
	case And:
		return ones == n
	case Nand:
		return ones != n
	case Or:
		return ones != 0
	case Nor:
		return ones == 0
	case Xor:
		return ones&1 == 1
	case Xnor:
		return ones&1 == 0
	}
	panic("circuit: EvalCount on non-combinational kind " + k.String())
}

// Gate is a single node of the netlist. Gates are identified by their index
// in Circuit.Gates.
type Gate struct {
	Name   string
	Kind   Kind
	Fanin  []int // gate IDs driving this gate's input pins, in pin order
	Fanout []int // gate IDs reading this gate's output (built by Finalize)
}

// Circuit is a gate-level netlist. Build one with New/AddGate/.../Finalize,
// by parsing a .bench file (ParseBench), or with Generate. A finalized
// circuit is read-only, so goroutines may share it.
type Circuit struct {
	Name    string
	Gates   []Gate
	Inputs  []int // primary input gate IDs
	Outputs []int // gate IDs whose output signal is a primary output
	DFFs    []int // flip-flop gate IDs

	byName    map[string]int
	topo      []int  // combinational gates in topological order
	level     []int  // logic level per gate (0 for sources)
	tapReach  []bool // per gate: does its output signal reach an observation point?
	finalized bool

	// Worklist tables (see buildWorklistIndex): DFF-free fanouts of gate
	// id are foList[foOff[id]:foOff[id+1]]; levelOff[l] is the first
	// worklist slot of level l.
	foOff, foList []int32
	levelOff      []int32
}

// New returns an empty circuit with the given name.
func New(name string) *Circuit {
	return &Circuit{Name: name, byName: map[string]int{}}
}

// AddGate appends a gate and returns its ID. Fanins reference gate IDs that
// may be added later only via AddGateNamed/resolution in the parser; for
// programmatic construction they must already exist.
func (c *Circuit) AddGate(name string, kind Kind, fanin ...int) int {
	if c.finalized {
		panic("circuit: AddGate after Finalize")
	}
	if _, dup := c.byName[name]; dup {
		panic(fmt.Sprintf("circuit: duplicate gate name %q", name))
	}
	id := len(c.Gates)
	c.Gates = append(c.Gates, Gate{Name: name, Kind: kind, Fanin: append([]int(nil), fanin...)})
	c.byName[name] = id
	switch kind {
	case Input:
		c.Inputs = append(c.Inputs, id)
	case DFF:
		c.DFFs = append(c.DFFs, id)
	}
	return id
}

// MarkOutput declares the gate's output signal a primary output.
func (c *Circuit) MarkOutput(id int) {
	if c.finalized {
		panic("circuit: MarkOutput after Finalize")
	}
	c.Outputs = append(c.Outputs, id)
}

// GateID returns the ID of the named gate.
func (c *Circuit) GateID(name string) (int, bool) {
	id, ok := c.byName[name]
	return id, ok
}

// NumGates returns the number of combinational gates (everything except
// primary inputs and flip-flops) — the "Gates" column of Table I.
func (c *Circuit) NumGates() int {
	n := 0
	for _, g := range c.Gates {
		if g.Kind != Input && g.Kind != DFF {
			n++
		}
	}
	return n
}

// NumFFs returns the number of flip-flops.
func (c *Circuit) NumFFs() int { return len(c.DFFs) }

// Finalize validates the netlist, builds fanout lists, computes the
// levelized topological order of the combinational logic and freezes the
// circuit. It must be called exactly once before any analysis.
func (c *Circuit) Finalize() error {
	if c.finalized {
		return fmt.Errorf("circuit %s: already finalized", c.Name)
	}
	for id, g := range c.Gates {
		switch g.Kind {
		case Input:
			if len(g.Fanin) != 0 {
				return fmt.Errorf("circuit %s: input %s has fanin", c.Name, g.Name)
			}
		case DFF:
			if len(g.Fanin) != 1 {
				return fmt.Errorf("circuit %s: DFF %s needs exactly 1 fanin, has %d", c.Name, g.Name, len(g.Fanin))
			}
		case Buf, Not:
			if len(g.Fanin) != 1 {
				return fmt.Errorf("circuit %s: %s %s needs exactly 1 fanin, has %d", c.Name, g.Kind, g.Name, len(g.Fanin))
			}
		default:
			if len(g.Fanin) < 1 {
				return fmt.Errorf("circuit %s: %s %s has no fanin", c.Name, g.Kind, g.Name)
			}
		}
		for _, f := range g.Fanin {
			if f < 0 || f >= len(c.Gates) {
				return fmt.Errorf("circuit %s: gate %s references unknown fanin %d", c.Name, g.Name, f)
			}
			if c.Gates[f].Kind == DFF && f == id {
				return fmt.Errorf("circuit %s: DFF %s feeds itself combinationally", c.Name, g.Name)
			}
		}
	}
	for id := range c.Gates {
		for _, f := range c.Gates[id].Fanin {
			c.Gates[f].Fanout = append(c.Gates[f].Fanout, id)
		}
	}
	if err := c.buildTopo(); err != nil {
		return err
	}
	c.buildTapReach()
	c.buildWorklistIndex()
	c.finalized = true
	return nil
}

// buildTapReach marks every gate whose output signal can structurally reach
// an observation point (a primary output or a flip-flop D input) through
// combinational logic. The event-driven fault simulator and the
// detection-range driver use it to drop (fault, pattern) work whose fanout
// cone is observed nowhere.
func (c *Circuit) buildTapReach() {
	c.tapReach = make([]bool, len(c.Gates))
	stack := make([]int, 0, len(c.Gates))
	seed := func(id int) {
		if !c.tapReach[id] {
			c.tapReach[id] = true
			stack = append(stack, id)
		}
	}
	for _, id := range c.Outputs {
		seed(id)
	}
	for _, ff := range c.DFFs {
		seed(c.Gates[ff].Fanin[0])
	}
	// Walk fanin edges backwards; DFF outputs are sources of the
	// combinational view, so reachability does not cross them.
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if c.Gates[id].Kind == DFF {
			continue
		}
		for _, f := range c.Gates[id].Fanin {
			seed(f)
		}
	}
}

// ReachesTap reports whether the output signal of gate id has a structural
// combinational path to any observation point. A delay fault at a site for
// which this is false can never be detected.
func (c *Circuit) ReachesTap(id int) bool {
	c.mustFinal()
	return c.tapReach[id]
}

// buildTopo computes a levelized order of the combinational gates. Sources
// (primary inputs and DFF outputs) have level 0; a combinational gate's
// level is 1 + max(level of fanins). A combinational cycle is an error.
func (c *Circuit) buildTopo() error {
	n := len(c.Gates)
	c.level = make([]int, n)
	indeg := make([]int, n)
	queue := make([]int, 0, n)
	for id, g := range c.Gates {
		switch g.Kind {
		case Input, DFF:
			queue = append(queue, id) // sources
		default:
			indeg[id] = len(g.Fanin)
		}
	}
	c.topo = c.topo[:0]
	seen := 0
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		seen++
		g := &c.Gates[id]
		if g.Kind != Input && g.Kind != DFF {
			c.topo = append(c.topo, id)
		}
		for _, fo := range g.Fanout {
			fg := &c.Gates[fo]
			if fg.Kind == DFF {
				continue // sequential edge, not part of the comb. graph
			}
			if c.level[id]+1 > c.level[fo] {
				c.level[fo] = c.level[id] + 1
			}
			indeg[fo]--
			if indeg[fo] == 0 {
				queue = append(queue, fo)
			}
		}
	}
	// DFFs were enqueued as sources but their D edge is sequential; count
	// how many combinational gates we must have seen.
	want := len(c.Inputs) + len(c.DFFs) + c.NumGates()
	if seen != want {
		return fmt.Errorf("circuit %s: combinational cycle detected (%d of %d gates ordered)", c.Name, seen, want)
	}
	return nil
}

// Topo returns the combinational gates in topological order. The circuit
// must be finalized.
func (c *Circuit) Topo() []int {
	c.mustFinal()
	return c.topo
}

// Level returns the logic level of the gate (0 for PIs and DFF outputs).
func (c *Circuit) Level(id int) int {
	c.mustFinal()
	return c.level[id]
}

// Depth returns the maximum logic level in the circuit.
func (c *Circuit) Depth() int {
	c.mustFinal()
	d := 0
	for _, l := range c.level {
		if l > d {
			d = l
		}
	}
	return d
}

func (c *Circuit) mustFinal() {
	if !c.finalized {
		panic("circuit: not finalized")
	}
}

// Tap identifies an observation point of the full-scan combinational view:
// either a primary output or a pseudo primary output (the D input of a
// flip-flop). Gate is the combinational gate (or source) whose output
// signal is observed there.
type Tap struct {
	Gate int // driving gate ID
	FF   int // DFF gate ID if pseudo output, -1 for a primary output
	PO   int // index into Circuit.Outputs for a primary output, -1 otherwise
	Name string
}

// IsPseudo reports whether the tap is a pseudo primary output (scan FF).
func (t Tap) IsPseudo() bool { return t.FF >= 0 }

// Taps returns all observation points: primary outputs first, then pseudo
// primary outputs in DFF declaration order. The index into the returned
// slice is the canonical "output index" used by the fault simulator and
// monitor placement.
func (c *Circuit) Taps() []Tap {
	c.mustFinal()
	taps := make([]Tap, 0, len(c.Outputs)+len(c.DFFs))
	for i, id := range c.Outputs {
		taps = append(taps, Tap{Gate: id, FF: -1, PO: i, Name: "po:" + c.Gates[id].Name})
	}
	for _, ff := range c.DFFs {
		d := c.Gates[ff].Fanin[0]
		taps = append(taps, Tap{Gate: d, FF: ff, PO: -1, Name: "ppo:" + c.Gates[ff].Name})
	}
	return taps
}

// Sources returns all launch points of the combinational view: primary
// inputs followed by DFF outputs (pseudo primary inputs).
func (c *Circuit) Sources() []int {
	c.mustFinal()
	src := make([]int, 0, len(c.Inputs)+len(c.DFFs))
	src = append(src, c.Inputs...)
	src = append(src, c.DFFs...)
	return src
}

// CombFanout returns the combinational fanouts of gate id: its fanouts
// without the flip-flops, whose D pin is a sequential edge. These are the
// edges an event crosses in the full-scan view, the ones
// Worklist.PushFanout queues. The returned slice must not be modified.
func (c *Circuit) CombFanout(id int) []int32 {
	return c.foList[c.foOff[id]:c.foOff[id+1]]
}

// Stats is a human-readable summary matching Table I columns 2–3.
type Stats struct {
	Name    string
	Gates   int
	FFs     int
	Inputs  int
	Outputs int
	Depth   int
}

// Stats returns the circuit statistics.
func (c *Circuit) Stats() Stats {
	return Stats{
		Name:    c.Name,
		Gates:   c.NumGates(),
		FFs:     c.NumFFs(),
		Inputs:  len(c.Inputs),
		Outputs: len(c.Outputs),
		Depth:   c.Depth(),
	}
}

func (s Stats) String() string {
	return fmt.Sprintf("%s: %d gates, %d FFs, %d PIs, %d POs, depth %d",
		s.Name, s.Gates, s.FFs, s.Inputs, s.Outputs, s.Depth)
}
