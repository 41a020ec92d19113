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

// TestDesignNamesEveryMetric keeps DESIGN.md §8 in step with the metric
// registry. Every string-literal name that non-test code under internal/
// and cmd/ passes to Counter, Gauge or Histogram must appear backquoted
// in §8; a name built as "prefix" + expr must match a documented
// `prefix<…>` entry.
func TestDesignNamesEveryMetric(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sec := string(doc)
	start := strings.Index(sec, "\n## 8.")
	if start < 0 {
		t.Fatal("DESIGN.md has no section 8")
	}
	sec = sec[start+1:]
	if end := strings.Index(sec, "\n## "); end >= 0 {
		sec = sec[:end]
	}
	names, prefixes := map[string]bool{}, map[string]bool{}
	for _, m := range regexp.MustCompile("`([^`]+)`").FindAllStringSubmatch(sec, -1) {
		if i := strings.Index(m[1], "<"); i > 0 && strings.HasSuffix(m[1], ">") {
			prefixes[m[1][:i]] = true
		} else {
			names[m[1]] = true
		}
	}

	fset := token.NewFileSet()
	calls := 0
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
						calls++
						if !prefixes[prefix] {
							t.Errorf("%s: %s(%q + …) has no `%s<…>` entry in DESIGN.md §8",
								fset.Position(call.Pos()), sel.Sel.Name, prefix, prefix)
						}
					}
				} else if name, ok := stringLit(arg); ok {
					calls++
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
	if calls == 0 {
		t.Fatal("found no metric registrations under internal/ and cmd/")
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
