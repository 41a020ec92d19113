package sim

import (
	"encoding/json"
	"fmt"
)

// Patterns serialize as {"v1":"0110...","v2":"1010..."} — one character per
// source bit — rather than JSON bool arrays. The compact form keeps cached
// pattern sets (internal/cache) an order of magnitude smaller and is
// unambiguous to round-trip. Pattern files (internal/patio) write their
// vectors the same way.

// AppendBits appends one '0' or '1' per bit to dst.
func AppendBits(dst []byte, bits []bool) []byte {
	for _, v := range bits {
		if v {
			dst = append(dst, '1')
		} else {
			dst = append(dst, '0')
		}
	}
	return dst
}

// ParseBits decodes a string of '0' and '1' characters, as AppendBits
// writes them.
func ParseBits(s string) ([]bool, error) {
	bits := make([]bool, len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '0':
			// already false
		case '1':
			bits[i] = true
		default:
			return nil, fmt.Errorf("sim: invalid bit character %q", s[i])
		}
	}
	return bits, nil
}

type patternJSON struct {
	V1 string `json:"v1"`
	V2 string `json:"v2"`
}

// MarshalJSON encodes the pattern in the compact bit-string form.
func (p Pattern) MarshalJSON() ([]byte, error) {
	v1 := AppendBits(make([]byte, 0, len(p.V1)), p.V1)
	v2 := AppendBits(make([]byte, 0, len(p.V2)), p.V2)
	return json.Marshal(patternJSON{V1: string(v1), V2: string(v2)})
}

// UnmarshalJSON decodes the compact bit-string form. Mismatched vector
// lengths are rejected: a pattern always has equal-length launch and capture
// vectors.
func (p *Pattern) UnmarshalJSON(data []byte) error {
	var pj patternJSON
	if err := json.Unmarshal(data, &pj); err != nil {
		return err
	}
	if len(pj.V1) != len(pj.V2) {
		return fmt.Errorf("sim: pattern vector lengths differ (%d vs %d)", len(pj.V1), len(pj.V2))
	}
	var err error
	if p.V1, err = ParseBits(pj.V1); err != nil {
		return err
	}
	p.V2, err = ParseBits(pj.V2)
	return err
}
