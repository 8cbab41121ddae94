// Package analysis implements the graph-traversal analyses of the EVA
// compiler (Section 6 of the paper): the validation passes that guarantee the
// transformed program satisfies every constraint of the target RNS-CKKS
// scheme (and therefore can never trigger a runtime exception in the FHE
// library) and the encryption-parameter selection pass.
package analysis

import (
	"fmt"
	"math"

	"eva/internal/core"
	"eva/internal/rewrite"
)

// ModSwitchMark is the chain entry standing for a MOD_SWITCH (the paper's ∞):
// it consumes a modulus-chain prime without constraining its value.
var ModSwitchMark = math.Inf(1)

// Chain is a rescale chain: the sequence of log2 divisors consumed on the way
// from a freshly-encrypted root to a term, with ModSwitchMark for entries
// consumed by MOD_SWITCH instead of RESCALE.
type Chain []float64

// Equal implements the paper's chain equality: equal lengths and, position by
// position, equal values unless either side is the ∞ wildcard.
func (c Chain) Equal(o Chain) bool {
	if len(c) != len(o) {
		return false
	}
	for i := range c {
		if math.IsInf(c[i], 1) || math.IsInf(o[i], 1) {
			continue
		}
		if c[i] != o[i] {
			return false
		}
	}
	return true
}

// merge combines two equal chains, preferring concrete entries over ∞.
func (c Chain) merge(o Chain) Chain {
	out := make(Chain, len(c))
	for i := range c {
		switch {
		case !math.IsInf(c[i], 1):
			out[i] = c[i]
		default:
			out[i] = o[i]
		}
	}
	return out
}

func (c Chain) clone() Chain { return append(Chain(nil), c...) }

// ConstraintError describes a violated scheme constraint, identifying the
// term at which validation failed. The compiler surfaces these at compile
// time so the FHE library never throws at run time.
type ConstraintError struct {
	Term       *core.Term
	Constraint int
	Detail     string
}

func (e *ConstraintError) Error() string {
	return fmt.Sprintf("analysis: constraint %d violated at %s: %s", e.Constraint, e.Term, e.Detail)
}

// ComputeChains performs the first validation pass: it computes the rescale
// chain of every Cipher term, asserting that chains are conforming and that
// the chains of the Cipher operands of ADD, SUB and MULTIPLY match
// (Constraint 1). Plain terms are not tracked (they carry no coefficient
// modulus of their own; the executor encodes them at the level of the Cipher
// operand they meet).
func ComputeChains(p *core.Program) (map[*core.Term]Chain, error) {
	types := p.InferTypes()
	chains := make(map[*core.Term]Chain, p.NumTerms())
	for _, t := range p.TopoSort() {
		if types[t] != core.TypeCipher {
			continue
		}
		var merged Chain
		var have bool
		for _, parm := range t.Parms() {
			if types[parm] != core.TypeCipher {
				continue
			}
			pc := chains[parm]
			if !have {
				merged, have = pc.clone(), true
				continue
			}
			if !merged.Equal(pc) {
				return nil, &ConstraintError{Term: t, Constraint: 1,
					Detail: fmt.Sprintf("operand coefficient moduli differ: chains %v vs %v", merged, pc)}
			}
			merged = merged.merge(pc)
		}
		switch t.Op {
		case core.OpRescale:
			merged = append(merged, t.LogScale)
		case core.OpModSwitch:
			merged = append(merged, ModSwitchMark)
		}
		chains[t] = merged
	}
	return chains, nil
}

// ValidateScales performs the second validation pass: it recomputes the
// fixed-point scale of every term and asserts that ADD and SUB operands have
// matching scales (Constraint 2), that every RESCALE divides by at most the
// maximum allowed rescale value (Constraint 4), and that no scale drops to or
// below zero (which would destroy the message).
func ValidateScales(p *core.Program, maxRescaleLog float64) (map[*core.Term]float64, error) {
	const tolerance = 1e-9
	scales := rewrite.ComputeLogScales(p)
	for _, t := range p.TopoSort() {
		switch t.Op {
		case core.OpAdd, core.OpSub:
			a, b := scales[t.Parm(0)], scales[t.Parm(1)]
			if math.Abs(a-b) > tolerance {
				return nil, &ConstraintError{Term: t, Constraint: 2,
					Detail: fmt.Sprintf("operand scales differ: 2^%g vs 2^%g", a, b)}
			}
		case core.OpRescale:
			if t.LogScale > maxRescaleLog {
				return nil, &ConstraintError{Term: t, Constraint: 4,
					Detail: fmt.Sprintf("rescale divisor 2^%g exceeds the maximum 2^%g", t.LogScale, maxRescaleLog)}
			}
		}
		if scales[t] <= 0 {
			return nil, &ConstraintError{Term: t, Constraint: 2,
				Detail: fmt.Sprintf("scale dropped to 2^%g; the message would be lost", scales[t])}
		}
	}
	return scales, nil
}

// ValidatePolynomialCounts performs the third validation pass: it tracks the
// number of polynomials of every Cipher term and asserts that the operands of
// every MULTIPLY (and rotation) consist of exactly two polynomials
// (Constraint 3), which guarantees a single relinearization key suffices.
func ValidatePolynomialCounts(p *core.Program) error {
	types := p.InferTypes()
	polys := make(map[*core.Term]int, p.NumTerms())
	for _, t := range p.TopoSort() {
		if types[t] != core.TypeCipher {
			continue
		}
		switch t.Op {
		case core.OpInput:
			polys[t] = 2
		case core.OpMultiply:
			a, b := t.Parm(0), t.Parm(1)
			if types[a] == core.TypeCipher && types[b] == core.TypeCipher {
				if polys[a] != 2 || polys[b] != 2 {
					return &ConstraintError{Term: t, Constraint: 3,
						Detail: fmt.Sprintf("multiplication operands have %d and %d polynomials; relinearization missing", polys[a], polys[b])}
				}
				polys[t] = 3
			} else {
				polys[t] = maxCipherPolys(t, types, polys)
			}
		case core.OpRelinearize:
			polys[t] = 2
		case core.OpRotateLeft, core.OpRotateRight:
			if polys[t.Parm(0)] != 2 {
				return &ConstraintError{Term: t, Constraint: 3,
					Detail: "rotation of a ciphertext with more than two polynomials; relinearization missing"}
			}
			polys[t] = 2
		default:
			polys[t] = maxCipherPolys(t, types, polys)
		}
	}
	return nil
}

func maxCipherPolys(t *core.Term, types map[*core.Term]core.Type, polys map[*core.Term]int) int {
	n := 2
	for _, parm := range t.Parms() {
		if types[parm] == core.TypeCipher && polys[parm] > n {
			n = polys[parm]
		}
	}
	return n
}

// Validate runs all validation passes and returns the computed chains and
// scales for use by parameter selection.
func Validate(p *core.Program, maxRescaleLog float64) (map[*core.Term]Chain, map[*core.Term]float64, error) {
	chains, err := ComputeChains(p)
	if err != nil {
		return nil, nil, err
	}
	scales, err := ValidateScales(p, maxRescaleLog)
	if err != nil {
		return nil, nil, err
	}
	if err := ValidatePolynomialCounts(p); err != nil {
		return nil, nil, err
	}
	return chains, scales, nil
}
