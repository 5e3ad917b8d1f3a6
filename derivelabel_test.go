package abdhfl

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// formattedLabelAllowed lists the labels non-test code outside benchmark/
// may still format for a Derive call, keyed by the file (slash-separated,
// from the module root) and the format string, each with its reason.
var formattedLabelAllowed = map[string]string{
	// DeriveDecimal and DeriveDecimals fold integers only; a fault rate is a
	// float, and the label is formatted once per sweep cell, not per event.
	"internal/experiments/consensuslatency.go rate-%g": "a float label, once per consensus-latency cell",
}

// TestDeriveLabelsAreNotFormatted fails on a fmt.Sprint, Sprintf or Sprintln
// call anywhere inside the arguments of a Derive, DeriveN, DeriveDecimal or
// DeriveDecimals call in the module's non-test code outside benchmark/: an
// integer label derives its stream string-free with rng.DeriveDecimal or
// rng.DeriveDecimals, which fold the bytes fmt would write, while a formatted
// label allocates on every draw. It also fails on an allowlist entry that no
// longer names a call, so the list cannot go stale.
func TestDeriveLabelsAreNotFormatted(t *testing.T) {
	fset := token.NewFileSet()
	used := map[string]bool{}
	files := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (path == "benchmark" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files++
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !strings.HasPrefix(calleeName(call.Fun), "Derive") {
				return true
			}
			for _, arg := range call.Args {
				ast.Inspect(arg, func(n ast.Node) bool {
					inner, ok := n.(*ast.CallExpr)
					if !ok || !isFmtSprint(inner.Fun) {
						return true
					}
					key := filepath.ToSlash(path) + " " + formatOf(inner)
					if _, ok := formattedLabelAllowed[key]; ok {
						used[key] = true
					} else {
						t.Errorf("%s: %s formats its label with fmt; derive it with rng.DeriveDecimal or rng.DeriveDecimals",
							fset.Position(inner.Pos()), calleeName(call.Fun))
					}
					return true
				})
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 50 {
		t.Fatalf("parsed %d non-test files; is the test running from the module root?", files)
	}
	for key := range formattedLabelAllowed {
		if !used[key] {
			t.Errorf("allowlist entry %q names no formatted Derive label; delete it", key)
		}
	}
}

// calleeName is the name a call's function expression ends in: f for f(…),
// and m for x.m(…).
func calleeName(fun ast.Expr) string {
	switch f := fun.(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
	}
	return ""
}

// isFmtSprint reports whether fun is fmt.Sprint, fmt.Sprintf or fmt.Sprintln.
func isFmtSprint(fun ast.Expr) bool {
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok || !strings.HasPrefix(sel.Sel.Name, "Sprint") {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "fmt"
}

// formatOf is a fmt call's first argument when it is a string literal, and
// "?" otherwise.
func formatOf(call *ast.CallExpr) string {
	if len(call.Args) > 0 {
		if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if s, err := strconv.Unquote(lit.Value); err == nil {
				return s
			}
		}
	}
	return "?"
}
