package fastmon

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestDesignNamesEveryMetric keeps the metric table of DESIGN.md §8
// (`| Layer | Counters | Gauges | Histograms |`) in step with the metric
// registry, in both directions. Every string-literal name that non-test
// code under internal/ and cmd/ passes to Counter, Gauge or Histogram
// must appear backquoted in the table, and a name built as
// "prefix" + expr must match a `prefix<…>` entry. Every name and
// prefix entry in the table must in turn be registered that way.
func TestDesignNamesEveryMetric(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	table := string(doc)
	start := strings.Index(table, "\n| Layer | Counters | Gauges | Histograms |\n")
	if start < 0 {
		t.Fatal("DESIGN.md has no metric table")
	}
	table = table[start+1:]
	if end := strings.Index(table, "\n\n"); end >= 0 {
		table = table[:end]
	}
	names, prefixes := map[string]bool{}, map[string]bool{}
	for _, m := range regexp.MustCompile("`([^`]+)`").FindAllStringSubmatch(table, -1) {
		if i := strings.Index(m[1], "<"); i > 0 && strings.HasSuffix(m[1], ">") {
			prefixes[m[1][:i]] = true
		} else {
			names[m[1]] = true
		}
	}
	if len(names) == 0 {
		t.Fatal("DESIGN.md's metric table names no metric")
	}

	fset := token.NewFileSet()
	registered, registeredPrefixes := map[string]bool{}, map[string]bool{}
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) != 1 {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || (sel.Sel.Name != "Counter" && sel.Sel.Name != "Gauge" && sel.Sel.Name != "Histogram") {
					return true
				}
				arg := call.Args[0]
				if bin, ok := arg.(*ast.BinaryExpr); ok && bin.Op == token.ADD {
					if prefix, ok := stringLit(bin.X); ok {
						registeredPrefixes[prefix] = true
						if !prefixes[prefix] {
							t.Errorf("%s: %s(%q + …) has no `%s<…>` entry in DESIGN.md §8",
								fset.Position(call.Pos()), sel.Sel.Name, prefix, prefix)
						}
					}
				} else if name, ok := stringLit(arg); ok {
					registered[name] = true
					if !names[name] {
						t.Errorf("%s: %s(%q) is not named in DESIGN.md §8",
							fset.Position(call.Pos()), sel.Sel.Name, name)
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(registered)+len(registeredPrefixes) == 0 {
		t.Fatal("found no metric registrations under internal/ and cmd/")
	}
	for name := range names {
		if !registered[name] {
			t.Errorf("DESIGN.md §8 names `%s`, but no non-test code under internal/ or cmd/ registers it", name)
		}
	}
	for prefix := range prefixes {
		if !registeredPrefixes[prefix] {
			t.Errorf("DESIGN.md §8 names `%s<…>`, but no non-test code under internal/ or cmd/ registers %q + …", prefix, prefix)
		}
	}
}

// stringLit returns the value of a string literal expression.
func stringLit(e ast.Expr) (string, bool) {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	return s, err == nil
}
