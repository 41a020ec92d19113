// Package patio reads and writes test-pattern files. Enhanced-scan
// pattern pairs are exchanged in a simple line-oriented text format
// (one launch/capture vector pair per line) so that externally generated
// test sets — the paper consumes compacted sets from a commercial ATPG —
// can be fed into the flow, and fastmon's own sets can be archived:
//
//	# fastmon patterns v1
//	# circuit s27
//	sources G0 G1 G2 G3 G5 G6 G7
//	0101101 1101001
//	1100000 0011111
//
// Vector characters are '0' and '1', ordered like the source list (primary
// inputs first, then scan flip-flops).
package patio

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"fastmon/internal/circuit"
	"fastmon/internal/sim"
)

// Write emits the pattern set for the circuit.
func Write(w io.Writer, c *circuit.Circuit, patterns []sim.Pattern) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# fastmon patterns v1\n# circuit %s\n", c.Name)
	names := make([]string, 0, len(c.Sources()))
	for _, id := range c.Sources() {
		names = append(names, c.Gates[id].Name)
	}
	fmt.Fprintf(bw, "sources %s\n", strings.Join(names, " "))
	nsrc := len(names)
	for pi, p := range patterns {
		if len(p.V1) != nsrc || len(p.V2) != nsrc {
			return fmt.Errorf("patio: pattern %d has %d/%d values for %d sources", pi, len(p.V1), len(p.V2), nsrc)
		}
		line := make([]byte, 0, 2*nsrc+1)
		line = sim.AppendBits(line, p.V1)
		line = append(line, ' ')
		line = sim.AppendBits(line, p.V2)
		line = append(line, '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses a pattern file for the given circuit. The source list in the
// file must match the circuit's sources exactly (same names, same order) —
// a mismatch means the patterns were generated for a different netlist and
// is an error, not a warning.
func Read(r io.Reader, c *circuit.Circuit) ([]sim.Pattern, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var patterns []sim.Pattern
	sawSources := false
	nsrc := len(c.Sources())
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if strings.HasPrefix(line, "sources ") {
			names := strings.Fields(line)[1:]
			if len(names) != nsrc {
				return nil, fmt.Errorf("patio:%d: file has %d sources, circuit %s has %d", lineNo, len(names), c.Name, nsrc)
			}
			for i, id := range c.Sources() {
				if names[i] != c.Gates[id].Name {
					return nil, fmt.Errorf("patio:%d: source %d is %q, circuit has %q", lineNo, i, names[i], c.Gates[id].Name)
				}
			}
			sawSources = true
			continue
		}
		if !sawSources {
			return nil, fmt.Errorf("patio:%d: vector before sources declaration", lineNo)
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("patio:%d: expected two vectors, got %d fields", lineNo, len(fields))
		}
		v1, err := parseVector(fields[0], nsrc)
		if err != nil {
			return nil, fmt.Errorf("patio:%d: %v", lineNo, err)
		}
		v2, err := parseVector(fields[1], nsrc)
		if err != nil {
			return nil, fmt.Errorf("patio:%d: %v", lineNo, err)
		}
		patterns = append(patterns, sim.Pattern{V1: v1, V2: v2})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sawSources {
		return nil, fmt.Errorf("patio: missing sources declaration")
	}
	return patterns, nil
}

func parseVector(s string, n int) ([]bool, error) {
	if len(s) != n {
		return nil, fmt.Errorf("vector has %d bits, want %d", len(s), n)
	}
	return sim.ParseBits(s)
}
