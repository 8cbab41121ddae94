package execute

import (
	"fmt"

	"eva/internal/core"
)

// RunReference executes a program under the paper's reference semantics (the
// identity "encryption" scheme): every value is a plain vector, and the
// FHE-specific instructions RESCALE, MOD_SWITCH and RELINEARIZE are the
// identity on values. It works on both input programs and compiled programs
// and is the oracle the tests compare homomorphic results against.
func RunReference(p *core.Program, values Inputs) (map[string][]float64, error) {
	env := make(map[*core.Term][]float64, p.NumTerms())
	for _, in := range p.Inputs() {
		v, ok := values[in.Name]
		if !ok {
			return nil, fmt.Errorf("execute: missing value for input %q", in.Name)
		}
		if len(v) == 0 || len(v) > p.VecSize {
			return nil, fmt.Errorf("execute: input %q has %d values; want 1..%d", in.Name, len(v), p.VecSize)
		}
		env[in] = Replicate(v, p.VecSize)
	}
	for _, t := range p.TopoSort() {
		var args [2][]float64
		for slot, q := range t.Parms() {
			args[slot] = env[q]
		}
		switch t.Op {
		case core.OpInput:
		case core.OpConstant:
			env[t] = Replicate(t.Value, p.VecSize)
		default:
			v, err := plainOp(t.Op, t.EffectiveRotation(), args[0], args[1])
			if err != nil {
				return nil, err
			}
			env[t] = v
		}
	}
	out := make(map[string][]float64, len(p.Outputs()))
	for _, o := range p.Outputs() {
		out[o.Name] = env[o.Term]
	}
	return out, nil
}

// plainOp evaluates one instruction on unencrypted operand vectors (b is nil
// for unary instructions, rot a rotation's effective left step): the
// reference semantics, which is also how the CKKS executor evaluates the
// Plain terms of a program. The FHE-specific instructions return their
// operand itself, not a copy.
func plainOp(op core.OpCode, rot int, a, b []float64) ([]float64, error) {
	switch op {
	case core.OpNegate:
		return mapVec(a, func(x float64) float64 { return -x }), nil
	case core.OpAdd:
		return zipVec(a, b, func(a, b float64) float64 { return a + b }), nil
	case core.OpSub:
		return zipVec(a, b, func(a, b float64) float64 { return a - b }), nil
	case core.OpMultiply:
		return zipVec(a, b, func(a, b float64) float64 { return a * b }), nil
	case core.OpRotateLeft, core.OpRotateRight:
		return rotate(a, rot), nil
	case core.OpRelinearize, core.OpModSwitch, core.OpRescale:
		return a, nil
	default:
		return nil, fmt.Errorf("execute: unsupported opcode %s", op)
	}
}

func mapVec(a []float64, f func(float64) float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = f(a[i])
	}
	return out
}

func zipVec(a, b []float64, f func(a, b float64) float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = f(a[i], b[i])
	}
	return out
}

// rotate rotates v left by k positions (k may be negative for right rotations).
func rotate(v []float64, k int) []float64 {
	n := len(v)
	out := make([]float64, n)
	k = ((k % n) + n) % n
	for i := range out {
		out[i] = v[(i+k)%n]
	}
	return out
}
