package store_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestStoreErrorsAreNeverDropped parses and type-checks the non-test code of
// every package that writes durable records, and fails on any Put, Get,
// Delete or List call on a store.Store whose error result is discarded: a
// call as a statement (go and defer included), or one whose error is
// assigned to _. A dropped store error is how a job, result or handle that a
// response reported durable goes missing without a log line.
func TestStoreErrorsAreNeverDropped(t *testing.T) {
	fset := token.NewFileSet()
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	storePkg, err := conf.Importer.Import("eva/internal/store")
	if err != nil {
		t.Fatal(err)
	}
	iface := storePkg.Scope().Lookup("Store").Type().Underlying().(*types.Interface)
	methods := map[string]bool{"Put": true, "Get": true, "Delete": true, "List": true}

	for _, pkg := range []string{"serve", "cluster", "handle", "profile", "jobs"} {
		dir := filepath.Join("..", pkg)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var files []*ast.File
		for _, e := range entries {
			name := e.Name()
			if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{Selections: map[*ast.SelectorExpr]*types.Selection{}}
		if _, err := conf.Check("eva/internal/"+pkg, fset, files, info); err != nil {
			t.Fatalf("type-checking %s: %v", pkg, err)
		}
		// storeCall reports whether e calls one of the store's methods on a
		// value whose type implements store.Store.
		storeCall := func(e ast.Expr) (string, bool) {
			call, ok := ast.Unparen(e).(*ast.CallExpr)
			if !ok {
				return "", false
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !methods[sel.Sel.Name] {
				return "", false
			}
			s, ok := info.Selections[sel]
			if !ok || s.Kind() != types.MethodVal {
				return "", false
			}
			recv := s.Recv()
			if !types.Implements(recv, iface) && !types.Implements(types.NewPointer(recv), iface) {
				return "", false
			}
			return sel.Sel.Name, true
		}
		blank := func(e ast.Expr) bool {
			id, ok := e.(*ast.Ident)
			return ok && id.Name == "_"
		}
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				var dropped ast.Expr
				switch n := n.(type) {
				case *ast.ExprStmt:
					dropped = n.X
				case *ast.GoStmt:
					dropped = n.Call
				case *ast.DeferStmt:
					dropped = n.Call
				case *ast.AssignStmt:
					if len(n.Rhs) == 1 && blank(n.Lhs[len(n.Lhs)-1]) {
						dropped = n.Rhs[0]
					}
				case *ast.ValueSpec:
					if len(n.Values) == 1 && blank(n.Names[len(n.Names)-1]) {
						dropped = n.Values[0]
					}
				}
				if dropped != nil {
					if name, ok := storeCall(dropped); ok {
						t.Errorf("%s: the error of a store %s is discarded", fset.Position(dropped.Pos()), name)
					}
				}
				return true
			})
		}
	}
}
