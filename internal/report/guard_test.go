package report

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestReportSimulatesNothing keeps every simulation the report prints a job
// of SuiteJobs, run by the exp.Runner its caller hands it — and so journaled,
// retried, watchdogged and leased under -serve like the rest. No non-test
// file of this package may import sync, runtime, emu or timing, build a
// simulator or a machine, or start a goroutine.
func TestReportSimulatesNothing(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("internal/report: no source files found (%v)", err)
	}
	banned := func(p string) bool {
		for _, b := range []string{"sync", "runtime", "ilsim/internal/emu", "ilsim/internal/timing"} {
			if p == b || strings.HasPrefix(p, b+"/") {
				return true
			}
		}
		return false
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
			if p, _ := strconv.Unquote(imp.Path.Value); banned(p) {
				t.Errorf("%s imports %s", fset.Position(imp.Pos()), p)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				t.Errorf("%s: go statement", fset.Position(n.Pos()))
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && x.Name == "core" &&
					(n.Sel.Name == "NewSimulator" || n.Sel.Name == "NewMachine") {
					t.Errorf("%s: calls core.%s", fset.Position(n.Pos()), n.Sel.Name)
				}
			}
			return true
		})
	}
}
