package cache

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"strings"
	"testing"

	"fastmon/internal/circuit"
	"fastmon/internal/tunit"
)

func parse(t testing.TB, src string) *circuit.Circuit {
	t.Helper()
	c, err := circuit.ParseBench("t", strings.NewReader(src))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return c
}

// permuted is s27 with its gate declarations in a different order, extra
// whitespace, comments, and a different circuit name — all formatting, no
// semantics.
const s27Permuted = `# a reformatted s27
INPUT(G0)
INPUT(G1)
INPUT(G2)
INPUT(G3)

OUTPUT(G17)

G7 = DFF(G13)
G6 = DFF(G11)
G5 = DFF(G10)

G17   =  NOT( G11 )
G14 = NOT(G0)
G8   = AND(G14, G6)
G15 = OR(G12, G8)
G16 = OR(G3, G8)
G12 = NOR(G1, G7)
G13 = NOR(G2, G12)
G10 = NOR(G14, G11)
G11 = NOR(G5, G9)
G9 = NAND(G16, G15)
`

func TestCircuitFingerprintCanonical(t *testing.T) {
	orig := parse(t, circuit.S27)
	perm := parse(t, s27Permuted)
	if got, want := CircuitFingerprint(perm), CircuitFingerprint(orig); got != want {
		t.Fatalf("reordered/reformatted s27 fingerprint differs:\n got %s\nwant %s\ncanonical orig:\n%s\ncanonical perm:\n%s",
			got, want, CanonicalBench(orig), CanonicalBench(perm))
	}
}

func TestCircuitFingerprintSemantic(t *testing.T) {
	base := CircuitFingerprint(parse(t, circuit.S27))
	mutations := map[string]func(string) string{
		"gate kind": func(s string) string {
			return strings.Replace(s, "G8 = AND(G14, G6)", "G8 = OR(G14, G6)", 1)
		},
		"pin order": func(s string) string {
			return strings.Replace(s, "G8 = AND(G14, G6)", "G8 = AND(G6, G14)", 1)
		},
		"connectivity": func(s string) string {
			return strings.Replace(s, "G14 = NOT(G0)", "G14 = NOT(G1)", 1)
		},
	}
	for name, mut := range mutations {
		src := mut(circuit.S27)
		if src == circuit.S27 {
			t.Fatalf("%s: mutation did not apply", name)
		}
		if CircuitFingerprint(parse(t, src)) == base {
			t.Errorf("%s: semantic change kept the fingerprint", name)
		}
	}
}

// TestGoldenKeys pins the fingerprints and key schema. A failure here means
// the key derivation changed: if that is intentional, bump SchemaVersion
// (so stale entries become unreachable) and update the constants.
func TestGoldenKeys(t *testing.T) {
	if SchemaVersion != 4 {
		t.Fatalf("SchemaVersion = %d: update the golden values below for the new epoch", SchemaVersion)
	}
	if got := CircuitFingerprint(parse(t, circuit.S27)); got != goldenS27 {
		t.Errorf("s27 fingerprint drifted:\n got %s\nwant %s", got, goldenS27)
	}
	if got := CircuitFingerprint(parse(t, circuit.C17)); got != goldenC17 {
		t.Errorf("c17 fingerprint drifted:\n got %s\nwant %s", got, goldenC17)
	}
	k := NewHasher("stage").
		Str("s", "v").
		Int("i", -5).
		F64("f", 0.25).
		Bool("b", true).
		Time("t", 1234).
		Times("ts", []tunit.Time{3, 1, 4}).
		Ints("is", []int{2, 7}).
		Bools("bs", []bool{true, false, true}).
		Bytes("raw", []byte{0, 1, 2}).
		Key()
	if k.Stage() != "stage" {
		t.Errorf("key stage = %q", k.Stage())
	}
	if got := k.String(); got != goldenHasher {
		t.Errorf("hasher key drifted:\n got %s\nwant %s", got, goldenHasher)
	}
}

const (
	goldenS27    = "297fc8d2a4f3b03222a97eb71c174b1d427bd3c67ad04ac615ba1ba93917a4c7"
	goldenC17    = "e0c26edd8afaccc2fe7429ce03f30da4086d6b70acf91d513b9f8894d4a65e58"
	goldenHasher = "stage-a656a5e9621de91f7e8b9f46b5d33576ec311eb628d163c2994ec492ab646b86"
)

// refHasher is the key framing written piece by piece: one Write per
// length prefix, label and payload, and fmt.Sprintf("%s[%d]") index labels.
// The buffered Hasher must feed SHA-256 the same byte stream.
type refHasher struct{ h hash.Hash }

func newRefHasher(stage string) *refHasher {
	r := &refHasher{h: sha256.New()}
	r.Int("schema", SchemaVersion)
	r.Str("stage", stage)
	return r
}

func (r *refHasher) frame(label string, n int) {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], uint32(len(label)))
	r.h.Write(buf[:])
	r.h.Write([]byte(label))
	binary.LittleEndian.PutUint32(buf[:], uint32(n))
	r.h.Write(buf[:])
}

func (r *refHasher) Bytes(label string, b []byte) {
	r.frame(label, len(b))
	r.h.Write(b)
}

func (r *refHasher) Str(label, s string) {
	r.frame(label, len(s))
	r.h.Write([]byte(s))
}

func (r *refHasher) Int(label string, v int64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(v))
	r.Bytes(label, buf[:])
}

func (r *refHasher) F64(label string, v float64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
	r.Bytes(label, buf[:])
}

func (r *refHasher) Bool(label string, v bool) {
	if v {
		r.Int(label, 1)
	} else {
		r.Int(label, 0)
	}
}

func (r *refHasher) Times(label string, ts []tunit.Time) {
	r.Int(label+".len", int64(len(ts)))
	for i, t := range ts {
		r.Int(fmt.Sprintf("%s[%d]", label, i), int64(t))
	}
}

func (r *refHasher) Ints(label string, vs []int) {
	r.Int(label+".len", int64(len(vs)))
	for i, v := range vs {
		r.Int(fmt.Sprintf("%s[%d]", label, i), int64(v))
	}
}

func (r *refHasher) Bools(label string, vs []bool) {
	b := make([]byte, len(vs))
	for i, v := range vs {
		if v {
			b[i] = 1
		}
	}
	r.Bytes(label, b)
}

func (r *refHasher) Key(stage string) Key {
	k := Key{stage: stage}
	r.h.Sum(k.sum[:0])
	return k
}

// TestHasherMatchesReferenceFraming feeds random component sequences to
// the buffered Hasher and to refHasher: every key must be equal. Slices
// run to 1,001 elements so index labels reach four digits, values go
// negative, string and byte payloads reach several flush blocks, and a
// sweep places the pending total on every side of flushSize.
func TestHasherMatchesReferenceFraming(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	lens := []int{0, 1, 10, 11, 101, 1001}
	text := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(rng.Intn(256))
		}
		return string(b)
	}
	size := func() int { // mostly short, sometimes several flush blocks
		if rng.Intn(4) == 0 {
			return flushSize + rng.Intn(3*flushSize)
		}
		return rng.Intn(40)
	}
	value := func() int64 {
		switch rng.Intn(4) {
		case 0:
			return -rng.Int63()
		case 1:
			return int64(rng.Intn(2001) - 1000)
		}
		return rng.Int63()
	}
	type step func(h *Hasher, r *refHasher)
	randomStep := func() step {
		label := text(rng.Intn(12))
		switch rng.Intn(9) {
		case 0:
			s := text(size())
			return func(h *Hasher, r *refHasher) { h.Str(label, s); r.Str(label, s) }
		case 1:
			b := []byte(text(size()))
			return func(h *Hasher, r *refHasher) { h.Bytes(label, b); r.Bytes(label, b) }
		case 2:
			v := value()
			return func(h *Hasher, r *refHasher) { h.Int(label, v); r.Int(label, v) }
		case 3:
			v := math.Float64frombits(uint64(value()))
			return func(h *Hasher, r *refHasher) { h.F64(label, v); r.F64(label, v) }
		case 4:
			v := rng.Intn(2) == 1
			return func(h *Hasher, r *refHasher) { h.Bool(label, v); r.Bool(label, v) }
		case 5:
			v := tunit.Time(value())
			return func(h *Hasher, r *refHasher) { h.Time(label, v); r.Int(label, int64(v)) }
		case 6:
			ts := make([]tunit.Time, lens[rng.Intn(len(lens))])
			for i := range ts {
				ts[i] = tunit.Time(value())
			}
			return func(h *Hasher, r *refHasher) { h.Times(label, ts); r.Times(label, ts) }
		case 7:
			vs := make([]int, lens[rng.Intn(len(lens))])
			for i := range vs {
				vs[i] = int(value())
			}
			return func(h *Hasher, r *refHasher) { h.Ints(label, vs); r.Ints(label, vs) }
		default:
			vs := make([]bool, size())
			for i := range vs {
				vs[i] = rng.Intn(2) == 1
			}
			return func(h *Hasher, r *refHasher) { h.Bools(label, vs); r.Bools(label, vs) }
		}
	}
	check := func(what, stage string, steps []step) {
		t.Helper()
		h, r := NewHasher(stage), newRefHasher(stage)
		for _, s := range steps {
			s(h, r)
		}
		if got, want := h.Key(), r.Key(stage); got != want {
			t.Fatalf("%s: buffered key %s, reference %s", what, got, want)
		}
	}
	for trial := 0; trial < 300; trial++ {
		steps := make([]step, rng.Intn(30))
		for i := range steps {
			steps[i] = randomStep()
		}
		check(fmt.Sprintf("trial %d", trial), text(rng.Intn(10)), steps)
	}

	// A pad that leaves the pending total one frame short of, at, or just
	// past flushSize, then a slice whose frames cross the next flushes.
	ts := make([]tunit.Time, 1001)
	for i := range ts {
		ts[i] = tunit.Time(value())
	}
	for d := -3; d <= 3; d++ {
		head := len(NewHasher("straddle").buf)
		pad := make([]byte, flushSize-head-len("pad")-8+d)
		h := NewHasher("straddle").Bytes("pad", pad)
		if total := head + len("pad") + 8 + len(pad); total < flushSize && len(h.buf) != total ||
			total >= flushSize && len(h.buf) != 0 {
			t.Fatalf("pad %+d: %d bytes pending of %d written", d, len(h.buf), total)
		}
		check(fmt.Sprintf("pad %+d", d), "straddle", []step{
			func(h *Hasher, r *refHasher) { h.Bytes("pad", pad); r.Bytes("pad", pad) },
			func(h *Hasher, r *refHasher) { h.Int("i", -1); r.Int("i", -1) },
			func(h *Hasher, r *refHasher) { h.Times("ts", ts); r.Times("ts", ts) },
		})
	}
}

// TestHasherClone finishes keys on clones of a shared prefix: each must
// equal the key hashed straight through, and writes to a clone must leave
// the original and the other clones alone. The prefix spans several flush
// blocks and leaves frames pending, so both the SHA-256 state and the
// buffer are copied.
func TestHasherClone(t *testing.T) {
	pad := make([]byte, 2*flushSize+100)
	for i := range pad {
		pad[i] = byte(i)
	}
	prefix := func(h *Hasher) *Hasher { return h.Bytes("pad", pad).Int("n", 7) }
	tails := []func(h *Hasher) *Hasher{
		func(h *Hasher) *Hasher { return h.Times("delays", []tunit.Time{1, 2, 3}).F64("coverage", 0.95) },
		func(h *Hasher) *Hasher { return h.Bool("free", true) },
		func(h *Hasher) *Hasher { return h.Bytes("big", pad) },
		// Fills and flushes the clone's buffer without outgrowing it, then
		// writes over the start of it.
		func(h *Hasher) *Hasher { return h.Bytes("block", pad[:flushSize]).Int("after", 1) },
	}
	head := prefix(NewHasher("clone"))
	if len(head.buf) == 0 {
		t.Fatal("prefix leaves no frames pending: the clone of the buffer goes untested")
	}
	for i, tail := range tails {
		got := tail(head.Clone()).Key()
		if want := tail(prefix(NewHasher("clone"))).Key(); got != want {
			t.Fatalf("tail %d: cloned key %s, straight key %s", i, got, want)
		}
	}
	if got, want := head.Key(), prefix(NewHasher("clone")).Key(); got != want {
		t.Fatalf("writes to clones moved the original: %s, want %s", got, want)
	}
}

// kindsEqual reports whether two parsed circuits assign the same kind to
// every gate name — the structural check FuzzCacheKey uses to tell a real
// semantic mutation from a textual flip the parser ignored.
func kindsEqual(a, b *circuit.Circuit) bool {
	if len(a.Gates) != len(b.Gates) {
		return false
	}
	kinds := make(map[string]circuit.Kind, len(a.Gates))
	for _, g := range a.Gates {
		kinds[g.Name] = g.Kind
	}
	for _, g := range b.Gates {
		if k, ok := kinds[g.Name]; !ok || k != g.Kind {
			return false
		}
	}
	return true
}

// FuzzCacheKey checks the canonicalization contract of the circuit
// fingerprint: permuting gate declaration order and reformatting whitespace
// must not change the fingerprint, while a semantic change (a gate kind
// flip) must.
func FuzzCacheKey(f *testing.F) {
	f.Add(circuit.S27, uint64(1))
	f.Add(circuit.C17, uint64(7))
	f.Add("INPUT(a)\nb = NOT(a)\nOUTPUT(b)\n", uint64(3))
	f.Fuzz(func(t *testing.T, src string, seed uint64) {
		c, err := circuit.ParseBench("f", strings.NewReader(src))
		if err != nil {
			t.Skip()
		}
		base := CircuitFingerprint(c)

		// Permutation: shuffle the non-empty source lines with a tiny
		// deterministic LCG, sprinkle whitespace and comments.
		lines := strings.Split(src, "\n")
		var kept []string
		for _, l := range lines {
			if strings.TrimSpace(l) != "" {
				kept = append(kept, strings.TrimSpace(l))
			}
		}
		rng := seed | 1
		for i := len(kept) - 1; i > 0; i-- {
			rng = rng*6364136223846793005 + 1442695040888963407
			j := int(rng % uint64(i+1))
			kept[i], kept[j] = kept[j], kept[i]
		}
		permuted := "# permuted\n" + strings.Join(kept, "\n\n  ") + "\n"
		pc, err := circuit.ParseBench("g", strings.NewReader(permuted))
		if err != nil {
			// Some shuffles are legitimately unparseable only if the
			// parser is order-sensitive; it is two-pass, so this would
			// be a real bug worth surfacing.
			t.Fatalf("permuted netlist no longer parses: %v\n%s", err, permuted)
		}
		if got := CircuitFingerprint(pc); got != base {
			t.Fatalf("permutation changed fingerprint\noriginal:\n%s\npermuted:\n%s", src, permuted)
		}

		// Semantic change: flip a gate-kind token in the source. The parser
		// tolerates comments and trailing garbage, so a textual flip may be
		// a no-op; only when the *parsed* circuits actually differ must the
		// fingerprints differ too.
		flips := [][2]string{{"AND(", "OR("}, {"NAND(", "NOR("}, {"NOT(", "BUF("}, {"XOR(", "XNOR("}}
		for _, fl := range flips {
			idx := strings.Index(src, fl[0])
			if idx < 0 {
				continue
			}
			mutated := src[:idx] + fl[1] + src[idx+len(fl[0]):]
			mc, err := circuit.ParseBench("m", strings.NewReader(mutated))
			if err != nil {
				break
			}
			if kindsEqual(c, mc) {
				break // flip landed in a comment or ignored text
			}
			if CircuitFingerprint(mc) == base {
				t.Fatalf("gate-kind flip changed the circuit but kept the fingerprint\n%s", mutated)
			}
			break
		}
	})
}
