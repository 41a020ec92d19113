package circuit

import (
	"fmt"
	"math/rand"
	"testing"
)

// worklistCircuits is the worklist workload: the two bench netlists plus
// generated circuits of varying depth and width.
func worklistCircuits(t *testing.T) []*Circuit {
	t.Helper()
	cs := []*Circuit{MustParseBench("s27", S27), MustParseBench("c17", C17)}
	for i, spec := range []GenSpec{
		{Gates: 60, FFs: 6, Inputs: 5, Outputs: 4, Depth: 5, Seed: 1},
		{Gates: 200, FFs: 16, Inputs: 10, Outputs: 6, Depth: 12, Seed: 2},
		{Gates: 400, FFs: 30, Inputs: 16, Outputs: 10, Depth: 20, Seed: 3},
	} {
		spec.Name = fmt.Sprintf("g%d", i)
		cs = append(cs, MustGenerate(spec))
	}
	return cs
}

// changes decides, independently of pop order, whether a popped gate's
// output moves in the simulated propagation.
func changes(seed int64, id int) bool {
	return rand.New(rand.NewSource(seed*7919+int64(id))).Intn(3) != 0
}

// drain runs one propagation from gate from: pop, and push the fanouts of
// every gate that changes, with PushFanout for even gate IDs and with
// Push, twice per gate, over CombFanout for odd ones. It checks the
// ordering guarantees on the way and returns the popped gates in pop
// order.
func drain(t *testing.T, c *Circuit, w *Worklist, from int, seed int64) []int {
	t.Helper()
	var popped []int
	seen := map[int]bool{}
	lastLvl := 0
	w.PushFanout(from)
	for {
		id, ok := w.Pop()
		if !ok {
			break
		}
		if c.Gates[id].Kind == DFF || c.Gates[id].Kind == Input {
			t.Fatalf("%s: popped source %s", c.Name, c.Gates[id].Name)
		}
		if seen[id] {
			t.Fatalf("%s: gate %s popped twice in one drain", c.Name, c.Gates[id].Name)
		}
		seen[id] = true
		if l := c.Level(id); l < lastLvl {
			t.Fatalf("%s: popped level %d after level %d", c.Name, l, lastLvl)
		} else {
			lastLvl = l
		}
		popped = append(popped, id)
		switch {
		case !changes(seed, id):
		case id%2 == 0:
			w.PushFanout(id)
		default:
			for _, fo := range c.CombFanout(id) {
				w.Push(int(fo))
				w.Push(int(fo))
			}
		}
	}
	return popped
}

// reached is the reference result of drain: every combinational gate with
// a fanin that is the start gate or a reached gate that changes.
func reached(c *Circuit, from int, seed int64) map[int]bool {
	out := map[int]bool{}
	for _, id := range c.Topo() {
		for _, f := range c.Gates[id].Fanin {
			if f == from || (out[f] && changes(seed, f)) {
				out[id] = true
				break
			}
		}
	}
	return out
}

// assertEmpty checks that nothing of a finished drain is left behind.
func assertEmpty(t *testing.T, w *Worklist) {
	t.Helper()
	if w.pending != 0 || w.lvl != len(w.n) {
		t.Fatalf("drained worklist: pending=%d lvl=%d of %d", w.pending, w.lvl, len(w.n))
	}
	for l, n := range w.n {
		if n != 0 {
			t.Fatalf("drained worklist: level %d holds %d gates", l, n)
		}
	}
	for id, q := range w.queued {
		if q {
			t.Fatalf("drained worklist: gate %d still marked queued", id)
		}
	}
	if id, ok := w.Pop(); ok {
		t.Fatalf("drained worklist popped %d", id)
	}
}

func TestWorklistDrainOrder(t *testing.T) {
	for _, c := range worklistCircuits(t) {
		w := c.NewWorklist()
		rng := rand.New(rand.NewSource(5))
		for trial := 0; trial < 40; trial++ {
			from := rng.Intn(len(c.Gates))
			seed := rng.Int63()
			popped := drain(t, c, w, from, seed)
			want := reached(c, from, seed)
			if len(popped) != len(want) {
				t.Fatalf("%s from %s: popped %d gates, reference reaches %d",
					c.Name, c.Gates[from].Name, len(popped), len(want))
			}
			for _, id := range popped {
				if !want[id] {
					t.Fatalf("%s from %s: popped unreached gate %s",
						c.Name, c.Gates[from].Name, c.Gates[id].Name)
				}
			}
			assertEmpty(t, w)
		}
	}
}

func TestWorklistReusableAfterDrain(t *testing.T) {
	for _, c := range worklistCircuits(t) {
		var top int
		for _, id := range c.Topo() {
			if c.Level(id) == c.Depth() {
				top = id
			}
		}
		starts := map[string]int{"source": c.Sources()[0], "highest level": top}
		for what, from := range starts {
			w := c.NewWorklist()
			first := drain(t, c, w, from, 1)
			if what == "highest level" && len(first) != 0 {
				t.Fatalf("%s: gate on the highest level has combinational fanout", c.Name)
			}
			assertEmpty(t, w)
			// The reused worklist must behave exactly like a fresh one.
			for _, next := range []int{c.Sources()[len(c.Sources())-1], from} {
				got := drain(t, c, w, next, 2)
				want := drain(t, c, c.NewWorklist(), next, 2)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s after a drain from the %s: reused worklist popped %v, fresh %v",
						c.Name, what, got, want)
				}
				assertEmpty(t, w)
			}
		}
	}
}
