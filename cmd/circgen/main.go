// Command circgen generates the synthetic benchmark circuits of the
// experiment suite and writes them as .bench netlists with optional SDF
// timing annotation.
//
// Usage:
//
//	circgen -list
//	circgen -name s9234 -scale 0.1 -o s9234.bench -sdf s9234.sdf
package main

import (
	"flag"
	"fmt"
	"os"

	"fastmon"
	"fastmon/internal/exper"
)

func main() {
	var (
		list    = flag.Bool("list", false, "list the suite circuits and their paper statistics")
		name    = flag.String("name", "", "suite circuit to generate")
		scale   = flag.Float64("scale", 1.0, "size scale (1.0 = paper size)")
		outPath = flag.String("o", "", "output .bench path (default: stdout)")
		sdfPath = flag.String("sdf", "", "also write nominal SDF annotation to this path")
	)
	flag.Parse()
	if err := run(*list, *name, *scale, *outPath, *sdfPath); err != nil {
		fmt.Fprintln(os.Stderr, "circgen:", err)
		os.Exit(1)
	}
}

func run(list bool, name string, scale float64, outPath, sdfPath string) error {
	if list {
		fmt.Printf("%-8s %8s %6s %6s\n", "name", "gates", "FFs", "|P|")
		for _, s := range exper.PaperSuite {
			fmt.Printf("%-8s %8d %6d %6d\n", s.Name, s.Gates, s.FFs, s.Patterns)
		}
		return nil
	}
	if name == "" {
		return fmt.Errorf("need -name NAME or -list")
	}
	if scale <= 0 || scale > 1 {
		return fmt.Errorf("-scale %g outside (0, 1]", scale)
	}
	spec, ok := exper.SpecByName(name)
	if !ok {
		return fmt.Errorf("unknown circuit %q", name)
	}
	c, err := spec.Build(scale)
	if err != nil {
		return err
	}
	out := os.Stdout
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	if err := fastmon.WriteBench(out, c); err != nil {
		return err
	}
	if sdfPath != "" {
		f, err := os.Create(sdfPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := fastmon.WriteSDF(f, c, fastmon.Annotate(c, fastmon.NanGate45())); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "%s\n", c.Stats())
	return nil
}
