package lang

import (
	"fmt"

	"eva/internal/core"
)

// Lower translates a checked AST into a core.Program term graph. It runs the
// semantic checker first; a file that fails the checker is never lowered.
//
// Name references share terms (referencing a binding twice yields one term
// with two uses), while inline expressions create fresh terms per occurrence
// — exactly the DAG the equivalent builder calls would construct.
func Lower(f *File) (*core.Program, ErrorList) {
	if errs := Check(f); len(errs) > 0 {
		return nil, errs
	}
	lw := &lowerer{file: f, env: map[string]*core.Term{}}
	prog, err := core.NewProgram(f.Name, f.VecSize)
	if err != nil {
		return nil, ErrorList{&Error{Pos: f.VecPos, Msg: err.Error(), Snippet: f.snippet(f.VecPos.Line)}}
	}
	lw.prog = prog
	for _, stmt := range f.Stmts {
		if !lw.stmt(stmt) {
			return nil, lw.errs
		}
	}
	// The checker guarantees frontend-visible structure; ValidateStructure
	// additionally covers invariants of compiler-inserted instructions
	// (rescale divisors and the like) for sources that spell them out.
	if _, err := prog.ValidateStructure(false); err != nil {
		return nil, ErrorList{&Error{Pos: Position{Line: 1, Col: 1}, Msg: err.Error()}}
	}
	return prog, nil
}

type lowerer struct {
	file *File
	prog *core.Program
	env  map[string]*core.Term
	errs ErrorList
}

func (lw *lowerer) errorf(pos Position, format string, args ...any) {
	lw.errs = append(lw.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...), Snippet: lw.file.snippet(pos.Line)})
}

func (lw *lowerer) stmt(stmt Stmt) bool {
	switch s := stmt.(type) {
	case *InputStmt:
		width := s.Width
		if width == 0 {
			if s.Type == core.TypeScalar {
				width = 1
			} else {
				width = lw.file.VecSize
			}
		}
		t, err := lw.prog.NewInput(s.Name, s.Type, width, s.Scale)
		if err != nil {
			lw.errorf(s.NamePos, "%v", err)
			return false
		}
		lw.env[s.Name] = t
	case *LetStmt:
		t := lw.expr(s.Expr)
		if t == nil {
			return false
		}
		lw.env[s.Name] = t
	case *OutputStmt:
		var t *core.Term
		if s.Expr == nil {
			t = lw.env[s.Name]
		} else {
			t = lw.expr(s.Expr)
		}
		if t == nil {
			return false
		}
		if err := lw.prog.AddOutput(s.Name, t, s.Scale); err != nil {
			lw.errorf(s.NamePos, "%v", err)
			return false
		}
	}
	return true
}

func (lw *lowerer) expr(e Expr) *core.Term {
	switch x := e.(type) {
	case *Ident:
		return lw.env[x.Name] // the checker proved it is defined
	case *Const:
		t, err := lw.prog.NewConstant(x.Values, x.Scale)
		if err != nil {
			lw.errorf(x.Pos, "%v", err)
			return nil
		}
		return t
	case *Binary:
		a := lw.expr(x.X)
		if a == nil {
			return nil
		}
		b := lw.expr(x.Y)
		if b == nil {
			return nil
		}
		t, err := lw.prog.NewBinary(x.Op, a, b)
		if err != nil {
			lw.errorf(x.OpPos, "%v", err)
			return nil
		}
		return t
	case *Call:
		a := lw.expr(x.X)
		if a == nil {
			return nil
		}
		var t *core.Term
		var err error
		switch x.Op {
		case core.OpRotateLeft, core.OpRotateRight:
			t, err = lw.prog.NewRotation(x.Op, a, x.By)
		case core.OpRescale:
			t, err = lw.prog.NewRescale(a, x.Scale)
		default:
			t, err = lw.prog.NewUnary(x.Op, a)
		}
		if err != nil {
			lw.errorf(x.Pos, "%v", err)
			return nil
		}
		return t
	}
	return nil
}
