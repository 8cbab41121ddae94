package builder

import "eva/internal/core"

// Builder operations only the tests use.

// PlainInput declares an unencrypted vector input.
func (b *Builder) PlainInput(name string, logScale float64) Expr {
	if b.err != nil {
		return Expr{b: b}
	}
	return b.wrap(b.prog.NewInput(name, core.TypeVector, b.VecSize(), logScale))
}

// Neg returns -e.
func (e Expr) Neg() Expr {
	if e.b == nil || e.b.err != nil {
		return e
	}
	return e.b.wrap(e.b.prog.NewUnary(core.OpNegate, e.t))
}

// SubScalar subtracts a scalar constant encoded at the given scale.
func (e Expr) SubScalar(v float64, logScale float64) Expr {
	if e.b == nil || e.b.err != nil {
		return e
	}
	return e.Sub(e.b.Scalar(v, logScale))
}
