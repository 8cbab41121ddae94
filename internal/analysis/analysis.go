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

// Validate checks that a transformed program satisfies every constraint of
// the scheme, in one walk over its topological order, and returns the
// rescale chain of every Cipher term and the log2 scale of every term for
// parameter selection. Everything is derived from the program itself.
//
//   - Constraint 1: the rescale chains of the Cipher operands of every
//     instruction match. Plain terms carry no chain: they have no coefficient
//     modulus of their own, and the executor encodes them at the level of the
//     Cipher operand they meet.
//   - Constraints 2 and 4: ADD and SUB operands have equal scales, no RESCALE
//     divides by more than the maximum 2^maxRescaleLog, and no scale drops to
//     or below zero (which would destroy the message). Scales follow
//     rewrite.ScaleOf.
//   - Constraint 3: the operands of every MULTIPLY of two ciphertexts and of
//     every rotation consist of exactly two polynomials, so a single
//     relinearization key suffices.
//
// When the program violates more than one kind, the error reported is the
// first violation in topological order of the first kind in the list above.
func Validate(p *core.Program, maxRescaleLog float64) (map[*core.Term]Chain, map[*core.Term]float64, error) {
	const tolerance = 1e-9
	order := p.TopoSort()
	chains := make(map[*core.Term]Chain, len(order))
	scales := make(map[*core.Term]float64, len(order))
	scaleOf := func(t *core.Term) float64 { return scales[t] }
	// polys counts the polynomials of every Cipher term, so a term is Cipher
	// exactly when its count is not zero.
	polys := core.NewTermMap[int](p)
	var scaleErr, polyErr *ConstraintError
	for _, t := range order {
		scale := rewrite.ScaleOf(t, scaleOf)
		scales[t] = scale
		if scaleErr == nil {
			switch t.Op {
			case core.OpAdd, core.OpSub:
				if a, b := scales[t.Parm(0)], scales[t.Parm(1)]; math.Abs(a-b) > tolerance {
					scaleErr = &ConstraintError{Term: t, Constraint: 2,
						Detail: fmt.Sprintf("operand scales differ: 2^%g vs 2^%g", a, b)}
				}
			case core.OpRescale:
				if t.LogScale > maxRescaleLog {
					scaleErr = &ConstraintError{Term: t, Constraint: 4,
						Detail: fmt.Sprintf("rescale divisor 2^%g exceeds the maximum 2^%g", t.LogScale, maxRescaleLog)}
				}
			}
			if scaleErr == nil && scale <= 0 {
				scaleErr = &ConstraintError{Term: t, Constraint: 2,
					Detail: fmt.Sprintf("scale dropped to 2^%g; the message would be lost", scale)}
			}
		}

		// Cipher-ness, chain and polynomial count.
		var chain Chain
		cipher := t.IsLeaf() && t.InType == core.TypeCipher
		n := 2
		for _, parm := range t.Parms() {
			pn := polys.Get(parm)
			if pn == 0 {
				continue
			}
			n = max(n, pn)
			pc := chains[parm]
			if !cipher {
				chain, cipher = pc.clone(), true
				continue
			}
			if !chain.Equal(pc) {
				return nil, nil, &ConstraintError{Term: t, Constraint: 1,
					Detail: fmt.Sprintf("operand coefficient moduli differ: chains %v vs %v", chain, pc)}
			}
			chain = chain.merge(pc)
		}
		if !cipher {
			continue
		}
		switch t.Op {
		case core.OpRescale:
			chain = append(chain, t.LogScale)
		case core.OpModSwitch:
			chain = append(chain, ModSwitchMark)
		case core.OpMultiply:
			a, b := polys.Get(t.Parm(0)), polys.Get(t.Parm(1))
			if a == 0 || b == 0 {
				break // a product with a plain operand keeps the cipher's count
			}
			if (a != 2 || b != 2) && polyErr == nil {
				polyErr = &ConstraintError{Term: t, Constraint: 3,
					Detail: fmt.Sprintf("multiplication operands have %d and %d polynomials; relinearization missing", a, b)}
			}
			n = 3
		case core.OpRelinearize:
			n = 2
		case core.OpRotateLeft, core.OpRotateRight:
			if n != 2 && polyErr == nil {
				polyErr = &ConstraintError{Term: t, Constraint: 3,
					Detail: "rotation of a ciphertext with more than two polynomials; relinearization missing"}
			}
			n = 2
		}
		chains[t] = chain
		polys.Set(t, n)
	}
	switch {
	case scaleErr != nil:
		return nil, nil, scaleErr
	case polyErr != nil:
		return nil, nil, polyErr
	}
	return chains, scales, nil
}
