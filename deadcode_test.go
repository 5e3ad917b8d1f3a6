//go:build deadcode

package abdhfl

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// deadcodeMinLines is the size from which an unlinked function counts:
// smaller ones are mostly accessors and test conveniences.
const deadcodeMinLines = 12

// deadcodeAllowed lists the functions of deadcodeMinLines or more that no
// main links but that stay on purpose, each with its reason. A key is an
// import path, then "." and the function name, or "." and Recv.Method for a
// method; a key that is an import path alone allows a whole package.
var deadcodeAllowed = map[string]string{
	// Non-WS reference kernels: the aggregate and tensor tests check the
	// workspace kernels the rules run against these plain versions.
	"abdhfl/internal/tensor.Median":                   "reference the coordinate-rule tests compare against",
	"abdhfl/internal/tensor.CoordinateMedian":         "reference for the WS median kernel",
	"abdhfl/internal/tensor.CoordinateTrimmedMean":    "reference for the WS trimmed-mean kernel",
	"abdhfl/internal/tensor.GeometricMedian":          "reference for the parallel geometric median",
	"abdhfl/internal/tensor.PairwiseSquaredDistances": "reference for PairwiseSquaredDistancesWS",

	"abdhfl/internal/attack.BackdoorSuccessRate": "test oracle of the core and attack backdoor tests",
	"abdhfl/internal/consensus.RunBinaryABA":     "entry point of the ABA adversarial-schedule property suite",
	"abdhfl/internal/chaostest":                  "fault-injection harness that only tests import",
	"abdhfl/internal/testenv":                    "tells tests whether they run under -race; only tests import it",

	// The flight recorder's dump side and hook fan-out: the pipeline links
	// only Record and Hook today; a node-stall dump (ROADMAP item 5) is the
	// planned caller.
	"abdhfl/internal/trace.FlightRecorder.Tail":      "flight-recorder dump, read by the chaostest sweeps",
	"abdhfl/internal/trace.FlightRecorder.WriteTail": "flight-recorder dump, read by the chaostest sweeps",
	"abdhfl/internal/trace.TeeMessageHooks":          "fans a simnet hook out to the flight recorder and one more hook",

	"abdhfl/internal/freelist.Quarantine": "the free lists' test-only quarantine; the freelist, transport, core, pipeline and node lifetime tests switch it on",

	"abdhfl.Scenario.jsonView":           "WriteScenario's view; the abdhfl-node process smoke writes scenario files with it",
	"abdhfl/internal/core.Scheme.String": "fmt.Stringer of the exported Scheme enum; names TestRunHFLAllSchemes' subtests",
	// No live-TCP test checks a clean EOF or a length claim under the
	// header size, so ReadFrame's stream tests are the only check of them.
	"abdhfl/internal/transport.ReadFrame": "its tests are the only check of a clean EOF and an undersized length claim",
}

// TestDeadcode builds every main of the module with inlining off, so that
// each function a binary calls keeps its own symbol, reads the text symbols
// of all of them with go tool nm, and fails on every non-test function of
// deadcodeMinLines or more that no binary contains and that deadcodeAllowed
// does not name. It also fails on an allowlist entry that no longer names an
// unlinked function, so the list cannot go stale.
//
//	go test -tags deadcode -run TestDeadcode .
func TestDeadcode(t *testing.T) {
	pkgs := listPackages(t)
	var mains []string
	for _, p := range pkgs {
		if p.Name == "main" {
			mains = append(mains, p.ImportPath)
		}
	}
	if len(mains) == 0 {
		t.Fatal("go list found no main package")
	}
	bin := t.TempDir()
	goTool(t, append([]string{"build", "-gcflags=all=-l", "-o", bin + string(filepath.Separator)}, mains...)...)

	// linked holds the module's text symbols of every binary, keyed as the
	// declarations below are; a main package's "main." symbols are kept per
	// binary, since every main shares that prefix.
	mod := modulePath(pkgs)
	linked := map[string]bool{}
	mainLinked := map[string]map[string]bool{}
	for _, m := range mains {
		name := filepath.Base(m)
		out := goTool(t, "tool", "nm", filepath.Join(bin, name))
		own := map[string]bool{}
		for _, line := range strings.Split(string(out), "\n") {
			f := strings.Fields(line)
			if len(f) < 3 || (f[1] != "T" && f[1] != "t") {
				continue
			}
			sym := normalizeSymbol(f[2])
			switch {
			case strings.HasPrefix(sym, "main."):
				own[sym] = true
			case strings.HasPrefix(sym, mod):
				linked[sym] = true
			}
		}
		mainLinked[m] = own
	}

	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	allowedHit := map[string]bool{}
	var dead []string
	fset := token.NewFileSet()
	for _, p := range pkgs {
		for _, file := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, file), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				start, end := fset.Position(fd.Pos()), fset.Position(fd.End())
				if end.Line-start.Line+1 < deadcodeMinLines {
					continue
				}
				name := funcName(fd)
				if name == "init" {
					continue // runs whenever its package is linked
				}
				var hit bool
				if p.Name == "main" {
					hit = mainLinked[p.ImportPath]["main."+name]
				} else {
					hit = linked[p.ImportPath+"."+name]
				}
				if hit {
					continue
				}
				key := p.ImportPath + "." + name
				if _, ok := deadcodeAllowed[key]; ok {
					allowedHit[key] = true
					continue
				}
				if _, ok := deadcodeAllowed[p.ImportPath]; ok {
					allowedHit[p.ImportPath] = true
					continue
				}
				file, _ := filepath.Rel(root, start.Filename)
				dead = append(dead, fmt.Sprintf("%s (%s:%d, %d lines)", key, file, start.Line, end.Line-start.Line+1))
			}
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("no main links %s: delete it, or allowlist it in deadcodeAllowed with its reason", d)
	}
	var stale []string
	for key := range deadcodeAllowed {
		if !allowedHit[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	for _, key := range stale {
		t.Errorf("deadcodeAllowed entry %q names no unlinked function of %d+ lines: remove it", key, deadcodeMinLines)
	}
}

type goPackage struct {
	Dir, ImportPath, Name string
	GoFiles               []string
	Module                *struct{ Path string }
}

// listPackages returns the module's packages with their non-test files, as
// the default build constraints select them.
func listPackages(t *testing.T) []goPackage {
	t.Helper()
	out := goTool(t, "list", "-json", "./...")
	var pkgs []goPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var p goPackage
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

// goTool runs the go command and returns its standard output, failing the
// test with its standard error.
func goTool(t *testing.T, args ...string) []byte {
	t.Helper()
	var stderr bytes.Buffer
	cmd := exec.Command("go", args...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
	}
	return out
}

func modulePath(pkgs []goPackage) string {
	for _, p := range pkgs {
		if p.Module != nil {
			return p.Module.Path
		}
	}
	return ""
}

// normalizeSymbol turns a linker symbol into the key funcName gives its
// declaration: "pkg.(*T[...]).M" becomes "pkg.T.M" and "pkg.F[...]"
// becomes "pkg.F". Closures ("pkg.F.func1") and wrappers keep their suffix
// and so never match a declaration of their own.
func normalizeSymbol(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth > 0, r == '(', r == ')', r == '*':
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// funcName is a declaration's key: "F" for a function, "T.M" for a method
// on T or *T.
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	typ := fd.Recv.List[0].Type
	for {
		switch x := typ.(type) {
		case *ast.StarExpr:
			typ = x.X
			continue
		case *ast.IndexExpr:
			typ = x.X
			continue
		case *ast.IndexListExpr:
			typ = x.X
			continue
		case *ast.Ident:
			return x.Name + "." + fd.Name.Name
		}
		return fd.Name.Name
	}
}
