// Package builder is the general-purpose frontend for EVA: a small expression
// DSL playing the role PyEVA plays in the paper. It lets applications build
// EVA input programs (Section 3, first group of Table 2) without manipulating
// the term graph directly, and carries optional kernel labels so higher-level
// frontends (the tensor compiler) can mark which high-level operation each
// instruction belongs to.
package builder

import (
	"fmt"
	"math"

	"eva/internal/core"
)

// Builder incrementally constructs an EVA input program. Errors encountered
// while building are sticky: they are reported by Program so call sites can
// chain expression operations without per-call error handling, mirroring the
// ergonomics of the Python frontend.
type Builder struct {
	prog   *core.Program
	kernel string
	err    error
}

// New creates a builder for a program whose vectors have the given
// power-of-two size.
func New(name string, vecSize int) *Builder {
	prog, err := core.NewProgram(name, vecSize)
	return &Builder{prog: prog, err: err}
}

// Expr is a handle to a value in the program being built.
type Expr struct {
	b *Builder
	t *core.Term
}

// Term exposes the underlying IR term (nil if the builder is in an error state).
func (e Expr) Term() *core.Term { return e.t }

// VecSize returns the program's vector size.
func (b *Builder) VecSize() int {
	if b.prog == nil {
		return 0
	}
	return b.prog.VecSize
}

// Err returns the first error encountered while building, if any.
func (b *Builder) Err() error { return b.err }

// SetKernel labels all terms created from now on with the given high-level
// kernel name (used by the CHET-style baseline for per-kernel scheduling).
func (b *Builder) SetKernel(name string) { b.kernel = name }

func (b *Builder) fail(err error) Expr {
	if b.err == nil {
		b.err = err
	}
	return Expr{b: b}
}

func (b *Builder) wrap(t *core.Term, err error) Expr {
	if err != nil {
		return b.fail(err)
	}
	t.Kernel = b.kernel
	return Expr{b: b, t: t}
}

// Input declares an encrypted (Cipher) input covering the whole vector.
func (b *Builder) Input(name string, logScale float64) Expr {
	return b.InputWithWidth(name, b.VecSize(), logScale)
}

// InputWithWidth declares an encrypted input of a smaller power-of-two width
// (EVA replicates it to the full vector size at encryption time).
func (b *Builder) InputWithWidth(name string, width int, logScale float64) Expr {
	if b.err != nil {
		return Expr{b: b}
	}
	return b.wrap(b.prog.NewInput(name, core.TypeCipher, width, logScale))
}

// PlainInput declares an unencrypted vector input.
func (b *Builder) PlainInput(name string, logScale float64) Expr {
	if b.err != nil {
		return Expr{b: b}
	}
	return b.wrap(b.prog.NewInput(name, core.TypeVector, b.VecSize(), logScale))
}

// Constant introduces a compile-time constant vector at the given scale.
func (b *Builder) Constant(values []float64, logScale float64) Expr {
	if b.err != nil {
		return Expr{b: b}
	}
	return b.wrap(b.prog.NewConstant(values, logScale))
}

// Scalar introduces a compile-time scalar constant at the given scale.
func (b *Builder) Scalar(v float64, logScale float64) Expr {
	if b.err != nil {
		return Expr{b: b}
	}
	return b.wrap(b.prog.NewScalarConstant(v, logScale))
}

// Output marks an expression as a program output with the desired scale.
func (b *Builder) Output(name string, e Expr, logScale float64) {
	if b.err != nil {
		return
	}
	if e.t == nil {
		b.fail(fmt.Errorf("builder: output %q refers to an invalid expression", name))
		return
	}
	if err := b.prog.AddOutput(name, e.t, logScale); err != nil {
		b.fail(err)
	}
}

// Program finalizes and returns the built program after structural validation.
func (b *Builder) Program() (*core.Program, error) {
	if b.err != nil {
		return nil, b.err
	}
	if _, err := b.prog.ValidateStructure(true); err != nil {
		return nil, err
	}
	return b.prog, nil
}

// MustProgram is Program but panics on error (for tests and fixed programs).
func (b *Builder) MustProgram() *core.Program {
	p, err := b.Program()
	if err != nil {
		panic(err)
	}
	return p
}

func (e Expr) binary(op core.OpCode, o Expr) Expr {
	b := e.b
	if b == nil {
		if o.b == nil {
			return Expr{}
		}
		return o.b.fail(fmt.Errorf("builder: operand built from a different builder"))
	}
	if b.err != nil {
		return Expr{b: b}
	}
	if o.b != b {
		return b.fail(fmt.Errorf("builder: mixing expressions from different builders"))
	}
	return b.wrap(b.prog.NewBinary(op, e.t, o.t))
}

// Add returns e + o element-wise.
func (e Expr) Add(o Expr) Expr { return e.binary(core.OpAdd, o) }

// Sub returns e - o element-wise.
func (e Expr) Sub(o Expr) Expr { return e.binary(core.OpSub, o) }

// Mul returns e * o element-wise.
func (e Expr) Mul(o Expr) Expr { return e.binary(core.OpMultiply, o) }

// Neg returns -e.
func (e Expr) Neg() Expr {
	if e.b == nil || e.b.err != nil {
		return e
	}
	return e.b.wrap(e.b.prog.NewUnary(core.OpNegate, e.t))
}

// RotateLeft returns e rotated left (toward lower indices) by k slots.
func (e Expr) RotateLeft(k int) Expr {
	if e.b == nil || e.b.err != nil {
		return e
	}
	return e.b.wrap(e.b.prog.NewRotation(core.OpRotateLeft, e.t, k))
}

// RotateRight returns e rotated right by k slots.
func (e Expr) RotateRight(k int) Expr {
	if e.b == nil || e.b.err != nil {
		return e
	}
	return e.b.wrap(e.b.prog.NewRotation(core.OpRotateRight, e.t, k))
}

// Square returns e * e.
func (e Expr) Square() Expr { return e.Mul(e) }

// MulScalar multiplies by a scalar constant encoded at the given scale.
func (e Expr) MulScalar(v float64, logScale float64) Expr {
	if e.b == nil || e.b.err != nil {
		return e
	}
	return e.Mul(e.b.Scalar(v, logScale))
}

// AddScalar adds a scalar constant encoded at the given scale.
func (e Expr) AddScalar(v float64, logScale float64) Expr {
	if e.b == nil || e.b.err != nil {
		return e
	}
	return e.Add(e.b.Scalar(v, logScale))
}

// SubScalar subtracts a scalar constant encoded at the given scale.
func (e Expr) SubScalar(v float64, logScale float64) Expr {
	if e.b == nil || e.b.err != nil {
		return e
	}
	return e.Sub(e.b.Scalar(v, logScale))
}

// MulVector multiplies by a constant vector (a plaintext mask) at the given scale.
func (e Expr) MulVector(values []float64, logScale float64) Expr {
	if e.b == nil || e.b.err != nil {
		return e
	}
	return e.Mul(e.b.Constant(values, logScale))
}

// Pow raises e to the n-th power (n >= 1) with a logarithmic-depth
// square-and-multiply chain.
func (e Expr) Pow(n int) Expr {
	if e.b == nil || e.b.err != nil {
		return e
	}
	if n < 1 {
		return e.b.fail(fmt.Errorf("builder: Pow exponent must be at least 1, got %d", n))
	}
	result := Expr{}
	base := e
	for n > 0 {
		if n&1 == 1 {
			if result.t == nil {
				result = base
			} else {
				result = result.Mul(base)
			}
		}
		n >>= 1
		if n > 0 {
			base = base.Square()
		}
	}
	return result
}

// Polynomial evaluates c0 + c1·e + c2·e² + ... with plaintext coefficients
// encoded at the given scale, using Horner's rule. Zero high-order
// coefficients are trimmed.
func (e Expr) Polynomial(coeffs []float64, logScale float64) Expr {
	if e.b == nil || e.b.err != nil {
		return e
	}
	n := len(coeffs)
	for n > 0 && coeffs[n-1] == 0 {
		n--
	}
	if n == 0 {
		return e.b.Scalar(0, logScale)
	}
	acc := e.b.Scalar(coeffs[n-1], logScale)
	first := true
	var result Expr
	for i := n - 2; i >= 0; i-- {
		if first {
			result = e.Mul(acc)
			first = false
		} else {
			result = e.Mul(result)
		}
		if coeffs[i] != 0 {
			result = result.AddScalar(coeffs[i], math.Min(logScale, 60))
		}
	}
	if first {
		return acc
	}
	return result
}

// SumSlots sums width adjacent slots into every slot using a logarithmic
// rotate-and-add reduction. width must be a power of two. After the call,
// slot i holds the sum of slots i, i+1, ..., i+width-1 (cyclically), so slot
// 0 holds the total of the first width slots.
func (e Expr) SumSlots(width int) Expr {
	if e.b == nil || e.b.err != nil {
		return e
	}
	if width <= 0 || width&(width-1) != 0 {
		return e.b.fail(fmt.Errorf("builder: SumSlots width %d is not a positive power of two", width))
	}
	acc := e
	for step := 1; step < width; step <<= 1 {
		acc = acc.Add(acc.RotateLeft(step))
	}
	return acc
}

// DotPlain computes the dot product of e with a plaintext vector of the given
// width: the result's slot 0 (and every width-th slot) holds the dot product.
func (e Expr) DotPlain(values []float64, logScale float64, width int) Expr {
	if e.b == nil || e.b.err != nil {
		return e
	}
	return e.MulVector(values, logScale).SumSlots(width)
}
