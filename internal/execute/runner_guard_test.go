package execute

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// TestRunnerReadsOnlyTheCompiledProgram keeps the run path on what
// compile.Lower decided: runner.go may hand an instruction's source term to
// OnInstruction and put it in error text, but it must not read the term's
// fields (no x.Term.Field selector), bind a local to a term (no t := in.Term)
// or read the source program (no .Program selector) — everything a run needs
// is in the instruction and the Result.
func TestRunnerReadsOnlyTheCompiledProgram(t *testing.T) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "runner.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	term := func(e ast.Expr) bool {
		sel, ok := e.(*ast.SelectorExpr)
		return ok && sel.Sel.Name == "Term"
	}
	ast.Inspect(file, func(n ast.Node) bool {
		var bound []ast.Expr
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if term(n.X) {
				t.Errorf("%s: reads a field of a source term", fset.Position(n.Pos()))
			}
			if n.Sel.Name == "Program" {
				t.Errorf("%s: reads the source program", fset.Position(n.Pos()))
			}
		case *ast.AssignStmt:
			bound = n.Rhs
		case *ast.ValueSpec:
			bound = n.Values
		}
		for _, e := range bound {
			if term(e) {
				t.Errorf("%s: binds a local to a source term", fset.Position(e.Pos()))
			}
		}
		return true
	})
}
