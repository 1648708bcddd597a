package tdp

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestStepDetailsAreGuarded: a trace step's detail is built only when
// somebody records it. Tracer.Step on a nil tracer does nothing, but its
// arguments are evaluated first, so a detail that is computed — a call,
// a concatenation, a conversion — costs its allocations on every
// untraced run unless the call sits in an `if <tracer> != nil` block on
// the same tracer expression (Handle.tracePut is the idiom). The
// repository's non-test Go files are checked; the benchmark module is
// not part of it.
func TestStepDetailsAreGuarded(t *testing.T) {
	fset := token.NewFileSet()
	var steps, guarded int
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata" || name == "bench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		inspectSteps(f, nil, func(call *ast.CallExpr, recv string, isGuarded bool) {
			steps++
			switch {
			case isGuarded:
				guarded++
			case computedDetail(call.Args[2]):
				t.Errorf("%s: %s.Step computes its detail %s outside an `if %s != nil` block",
					fset.Position(call.Pos()), recv, types.ExprString(call.Args[2]), recv)
			}
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if steps == 0 || guarded == 0 {
		t.Fatalf("found %d Step calls, %d of them guarded: the walk missed the tree", steps, guarded)
	}
}

// inspectSteps calls visit for every three-argument X.Step call under
// n, with X as written and whether an enclosing if statement's
// condition requires X != nil. guards holds the expressions the
// enclosing conditions already require to be non-nil.
func inspectSteps(n ast.Node, guards []string, visit func(call *ast.CallExpr, recv string, guarded bool)) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			if n.Init != nil {
				inspectSteps(n.Init, guards, visit)
			}
			inspectSteps(n.Cond, guards, visit)
			inspectSteps(n.Body, append(nonNilIn(n.Cond), guards...), visit)
			if n.Else != nil {
				inspectSteps(n.Else, guards, visit)
			}
			return false
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Step" && len(n.Args) == 3 {
				recv := types.ExprString(sel.X)
				visit(n, recv, slices.Contains(guards, recv))
			}
		}
		return true
	})
}

// nonNilIn returns the expressions cond requires to be non-nil: the X
// of every X != nil joined by &&.
func nonNilIn(cond ast.Expr) []string {
	e, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok {
		return nil
	}
	switch e.Op {
	case token.LAND:
		return append(nonNilIn(e.X), nonNilIn(e.Y)...)
	case token.NEQ:
		if id, ok := ast.Unparen(e.Y).(*ast.Ident); ok && id.Name == "nil" {
			return []string{types.ExprString(e.X)}
		}
	}
	return nil
}

// computedDetail reports whether evaluating detail does work: a call
// (fmt.Sprintf, strconv.Itoa, .String(), .Error(), a conversion) or an
// operator such as +. Literals, names and field reads cost nothing.
func computedDetail(detail ast.Expr) bool {
	switch ast.Unparen(detail).(type) {
	case *ast.CallExpr, *ast.BinaryExpr:
		return true
	}
	return false
}
