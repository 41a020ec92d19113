package circuit

// buildWorklistIndex precomputes the immutable tables every Worklist of
// the circuit shares: DFF-free fanout lists in one flat array (the edges
// an event crosses in the combinational view) and per-level slot offsets.
// Each combinational gate can be queued at most once at a time, so level
// l needs exactly as many slots as it has gates; levelOff[l] is the first
// of them. Sources sit on level 0 and are never queued.
func (c *Circuit) buildWorklistIndex() {
	c.foOff = make([]int32, len(c.Gates)+1)
	for id, g := range c.Gates {
		n := int32(0)
		for _, fo := range g.Fanout {
			if c.Gates[fo].Kind != DFF {
				n++
			}
		}
		c.foOff[id+1] = c.foOff[id] + n
	}
	c.foList = make([]int32, 0, c.foOff[len(c.Gates)])
	for _, g := range c.Gates {
		for _, fo := range g.Fanout {
			if c.Gates[fo].Kind != DFF {
				c.foList = append(c.foList, int32(fo))
			}
		}
	}
	depth := 0
	for _, l := range c.level {
		depth = max(depth, l)
	}
	c.levelOff = make([]int32, depth+2)
	for _, id := range c.topo {
		c.levelOff[c.level[id]+1]++
	}
	for l := 1; l < len(c.levelOff); l++ {
		c.levelOff[l] += c.levelOff[l-1]
	}
}

// Worklist is a level-ordered event queue over a finalized circuit's
// combinational view — the propagation core of event-driven simulation
// and implication. PushFanout queues the combinational fanouts of a gate
// whose output changed; Pop hands queued gates back lowest level first.
// A gate's fanouts sit on strictly higher levels than the gate, so a
// drain that pushes the fanouts of every popped gate whose output moved
// returns each gate after all of its changed fanins and at most once.
//
// A drain ends when Pop reports false; the Worklist is then empty and
// ready for the next one. It holds per-caller state and must not be
// shared between goroutines.
type Worklist struct {
	c       *Circuit
	slots   []int32 // queued gate IDs; level l owns slots[c.levelOff[l]:c.levelOff[l+1]]
	n       []int32 // queued gates per level
	queued  []bool
	lvl     int // no level below lvl holds a queued gate
	pending int
}

// NewWorklist returns an empty worklist over the circuit.
func (c *Circuit) NewWorklist() *Worklist {
	c.mustFinal()
	nl := len(c.levelOff) - 1
	return &Worklist{
		c:      c,
		slots:  make([]int32, c.levelOff[nl]),
		n:      make([]int32, nl),
		queued: make([]bool, len(c.Gates)),
		lvl:    nl,
	}
}

// PushFanout queues every combinational fanout of gate id that is not
// already queued. Flip-flops are never queued: their D pin is a
// sequential edge.
func (w *Worklist) PushFanout(id int) {
	for _, fo := range w.c.CombFanout(id) {
		w.Push(int(fo))
	}
}

// Push queues one combinational gate unless it is already queued. A
// caller that settles some fanouts itself queues the rest one by one; a
// drain stays level-ordered as long as every gate it queues sits on a
// higher level than the gate being processed.
func (w *Worklist) Push(id int) {
	if w.queued[id] {
		return
	}
	w.queued[id] = true
	c := w.c
	l := c.level[id]
	w.slots[c.levelOff[l]+w.n[l]] = int32(id)
	w.n[l]++
	if l < w.lvl {
		w.lvl = l
	}
	w.pending++
}

// Pop removes and returns a queued gate of the lowest queued level. It
// reports false, with the worklist empty, when nothing is queued.
func (w *Worklist) Pop() (int, bool) {
	if w.pending == 0 {
		w.lvl = len(w.n)
		return -1, false
	}
	for w.n[w.lvl] == 0 {
		w.lvl++
	}
	w.n[w.lvl]--
	id := w.slots[w.c.levelOff[w.lvl]+w.n[w.lvl]]
	w.queued[id] = false
	w.pending--
	return int(id), true
}
