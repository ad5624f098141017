package timing_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestSimulationIsSingleThreaded keeps a simulation on one goroutine by
// construction: no non-test file of the packages a run executes in — timing,
// mem, emu, stats — may import sync or sync/atomic or contain a go statement.
// Concurrency lives above a simulation (exp's -j workers, dist), which is
// why make race can leave these four packages out.
func TestSimulationIsSingleThreaded(t *testing.T) {
	for _, pkg := range []string{"timing", "mem", "emu", "stats"} {
		files, err := filepath.Glob(filepath.Join("..", pkg, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("internal/%s: no source files found (%v)", pkg, err)
		}
		fset := token.NewFileSet()
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); p == "sync" || p == "sync/atomic" {
					t.Errorf("%s imports %s", fset.Position(imp.Pos()), p)
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					t.Errorf("%s: go statement", fset.Position(g.Pos()))
				}
				return true
			})
		}
	}
}
