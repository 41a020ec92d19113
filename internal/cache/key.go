// Package cache is a content-addressed, disk-backed memo layer for the
// deterministic pipeline stages (ATPG pattern generation, detection-interval
// extraction, two-step schedule construction).
//
// A cached entry is addressed by a Key: a SHA-256 fingerprint over a
// label-framed serialization of everything the stage result depends on —
// the circuit netlist in canonical form, the cell library, the delay
// annotation, the stage configuration, and a schema epoch that is bumped
// whenever a stage algorithm or a cached value layout changes. Two runs that
// hash the same inputs may share results; anything else must not, so every
// key component is length-prefixed and labelled to rule out ambiguity
// between adjacent fields.
//
// Values are CRC-enveloped JSON records written through internal/safeio.
// Corrupt, truncated or version-skewed entries are indistinguishable from
// absent ones: the cache degrades to a miss, never to an error and never to
// a wrong result.
package cache

import (
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"sort"
	"strconv"
	"strings"

	"fastmon/internal/circuit"
	"fastmon/internal/tunit"
)

// SchemaVersion is the code epoch mixed into every key. Bump it whenever a
// stage algorithm, a key component, or a cached value layout changes so that
// stale entries from older binaries become unreachable (version skew reads
// as a miss, not a decode of wrong data).
//
// Epoch 2: ATPG don't-care fill re-keyed per fault (splitmix64 on
// (Seed, fault index)) for the speculative parallel deterministic phase —
// pattern sets changed once for every seed.
//
// Epoch 3: PartialCover bounds with marginal gains, and an aborted
// covering solve never returns more sets than greedy less its redundant
// sets — a budget-bound schedule under the same key can now differ.
//
// Epoch 4: ATPG proves the searches PODEM does not decide within a short
// backtrack prefix untestable with a SAT solver. Pattern sets are
// unchanged, but a cached atpg entry's Stats (Untestable, Aborted,
// Backtracks) move under an unchanged key.
const SchemaVersion = 4

// Key addresses one cached stage result. The zero Key is invalid.
type Key struct {
	stage string
	sum   [sha256.Size]byte
}

// Stage returns the pipeline stage the key belongs to ("atpg", "detect",
// "schedule").
func (k Key) Stage() string { return k.stage }

// String renders the key as "<stage>-<hex>"; it doubles as the entry's
// filename, so it must stay filesystem-safe.
func (k Key) String() string {
	return k.stage + "-" + hex.EncodeToString(k.sum[:])
}

// Hasher accumulates labelled key components into a SHA-256 fingerprint.
// Every Write* method frames its input with the label and a length prefix so
// that distinct component sequences can never collide by concatenation.
//
// Frames are appended to one pending buffer and handed to SHA-256 in blocks
// of at least flushSize bytes. The digest reads the same byte stream as if
// every piece were written on its own, so the buffering changes no key.
type Hasher struct {
	h         hash.Hash
	buf       []byte
	stageName string
}

// flushSize is the pending-buffer length at which frames are hashed.
const flushSize = 4 << 10

// NewHasher starts a key for one pipeline stage. The schema epoch and the
// stage name are the first components of every key.
func NewHasher(stage string) *Hasher {
	h := &Hasher{h: sha256.New(), buf: make([]byte, 0, 2*flushSize), stageName: stage}
	h.Int("schema", SchemaVersion)
	h.Str("stage", stage)
	return h
}

// frame appends label and payload length before the payload itself.
func (h *Hasher) frame(label string, n int) {
	h.buf = binary.LittleEndian.AppendUint32(h.buf, uint32(len(label)))
	h.buf = append(h.buf, label...)
	h.buf = binary.LittleEndian.AppendUint32(h.buf, uint32(n))
}

// flushFull hashes the pending frames once they fill a block.
func (h *Hasher) flushFull() *Hasher {
	if len(h.buf) >= flushSize {
		h.h.Write(h.buf)
		h.buf = h.buf[:0]
	}
	return h
}

// Str hashes a labelled string component.
func (h *Hasher) Str(label, s string) *Hasher {
	h.frame(label, len(s))
	h.buf = append(h.buf, s...)
	return h.flushFull()
}

// Bytes hashes a labelled raw byte component.
func (h *Hasher) Bytes(label string, b []byte) *Hasher {
	h.frame(label, len(b))
	h.buf = append(h.buf, b...)
	return h.flushFull()
}

// Int hashes a labelled integer component.
func (h *Hasher) Int(label string, v int64) *Hasher {
	h.frame(label, 8)
	h.buf = binary.LittleEndian.AppendUint64(h.buf, uint64(v))
	return h.flushFull()
}

// F64 hashes a labelled float component by its exact bit pattern.
func (h *Hasher) F64(label string, v float64) *Hasher {
	return h.Int(label, int64(math.Float64bits(v)))
}

// Bool hashes a labelled boolean component.
func (h *Hasher) Bool(label string, v bool) *Hasher {
	if v {
		return h.Int(label, 1)
	}
	return h.Int(label, 0)
}

// Time hashes a labelled tunit.Time component.
func (h *Hasher) Time(label string, t tunit.Time) *Hasher {
	return h.Int(label, int64(t))
}

// Times hashes a labelled tunit.Time slice, order-sensitive.
func (h *Hasher) Times(label string, ts []tunit.Time) *Hasher {
	return hashSeq(h, label, ts)
}

// Bools hashes a labelled bit vector, order-sensitive.
func (h *Hasher) Bools(label string, vs []bool) *Hasher {
	h.frame(label, len(vs))
	for _, v := range vs {
		var b byte
		if v {
			b = 1
		}
		h.buf = append(h.buf, b)
	}
	return h.flushFull()
}

// Ints hashes a labelled int slice, order-sensitive.
func (h *Hasher) Ints(label string, vs []int) *Hasher {
	return hashSeq(h, label, vs)
}

// hashSeq frames a slice as Int(label+".len") followed by one Int per
// element labelled "label[i]". The indexed label is built in place: its
// length prefix is patched once the decimal index has been appended.
func hashSeq[T ~int | ~int64](h *Hasher, label string, vs []T) *Hasher {
	h.buf = binary.LittleEndian.AppendUint32(h.buf, uint32(len(label)+len(".len")))
	h.buf = append(append(h.buf, label...), ".len"...)
	h.buf = binary.LittleEndian.AppendUint32(h.buf, 8)
	h.buf = binary.LittleEndian.AppendUint64(h.buf, uint64(len(vs)))
	for i, v := range vs {
		at := len(h.buf)
		h.buf = append(h.buf, 0, 0, 0, 0)
		h.buf = append(append(h.buf, label...), '[')
		h.buf = append(strconv.AppendInt(h.buf, int64(i), 10), ']')
		binary.LittleEndian.PutUint32(h.buf[at:], uint32(len(h.buf)-at-4))
		h.buf = binary.LittleEndian.AppendUint32(h.buf, 8)
		h.buf = binary.LittleEndian.AppendUint64(h.buf, uint64(v))
		h.flushFull()
	}
	return h.flushFull()
}

// Clone returns an independent hasher holding the same components: a key
// finished on the clone equals one finished on h after the same writes,
// and writes to either leave the other alone. A caller hashes a shared
// prefix once and finishes several keys on clones of it.
func (h *Hasher) Clone() *Hasher {
	state, err := h.h.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		panic("cache: sha256 state does not marshal: " + err.Error())
	}
	d := sha256.New()
	if err := d.(encoding.BinaryUnmarshaler).UnmarshalBinary(state); err != nil {
		panic("cache: sha256 state does not unmarshal: " + err.Error())
	}
	return &Hasher{h: d, buf: append(make([]byte, 0, 2*flushSize), h.buf...), stageName: h.stageName}
}

// Key finalizes the digest.
func (h *Hasher) Key() Key {
	h.h.Write(h.buf)
	h.buf = h.buf[:0]
	k := Key{stage: h.stageName}
	h.h.Sum(k.sum[:0])
	return k
}

// CanonicalBench renders the circuit in a canonical .bench-like form that is
// invariant under whitespace, comments, and gate declaration order: gates
// are emitted sorted by name, fanins keep their declared pin order (pin
// order carries delay semantics), and outputs are emitted sorted. The
// circuit name is formatting, not semantics, and is excluded.
func CanonicalBench(c *circuit.Circuit) []byte {
	var b strings.Builder
	type line struct{ name, text string }
	lines := make([]line, 0, len(c.Gates))
	for i := range c.Gates {
		g := &c.Gates[i]
		var t strings.Builder
		if g.Kind == circuit.Input {
			t.WriteString("INPUT(" + g.Name + ")")
		} else {
			t.WriteString(g.Name + " = " + g.Kind.String() + "(")
			for p, f := range g.Fanin {
				if p > 0 {
					t.WriteByte(',')
				}
				t.WriteString(c.Gates[f].Name)
			}
			t.WriteByte(')')
		}
		lines = append(lines, line{g.Name, t.String()})
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i].name < lines[j].name })
	for _, l := range lines {
		b.WriteString(l.text)
		b.WriteByte('\n')
	}
	outs := make([]string, len(c.Outputs))
	for i, id := range c.Outputs {
		outs[i] = c.Gates[id].Name
	}
	sort.Strings(outs)
	for _, o := range outs {
		b.WriteString("OUTPUT(" + o + ")\n")
	}
	return []byte(b.String())
}

// CircuitFingerprint returns the hex SHA-256 of the canonical netlist form.
// It is the circuit component of every stage key: permuting gate
// declarations or reformatting the source .bench file does not change it,
// while any semantic edit (gate kind, connectivity, pin order, output set)
// does.
func CircuitFingerprint(c *circuit.Circuit) string {
	sum := sha256.Sum256(CanonicalBench(c))
	return hex.EncodeToString(sum[:])
}
