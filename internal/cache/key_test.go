package cache

import (
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
	if SchemaVersion != 3 {
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
	goldenHasher = "stage-39776c45480f7f091f2148187344329440260128654f95b321ffad1e976d64ed"
)

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
