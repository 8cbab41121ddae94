// Package analysis implements the graph-traversal analyses of the EVA
// compiler (Section 6 of the paper): the validation passes that guarantee the
// transformed program satisfies every constraint of the target RNS-CKKS
// scheme (and therefore can never trigger a runtime exception in the FHE
// library) and the encryption-parameter selection pass.
package analysis

import (
	"fmt"
	"math"
	"slices"

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

// merge combines two equal chains, preferring concrete entries over ∞. It
// returns c itself when o fills none of c's ∞ entries, and a new chain
// otherwise: chains are shared between terms and never written.
func (c Chain) merge(o Chain) Chain {
	var out Chain
	for i := range c {
		if math.IsInf(c[i], 1) && !math.IsInf(o[i], 1) {
			if out == nil {
				out = slices.Clone(c)
			}
			out[i] = o[i]
		}
	}
	if out == nil {
		return c
	}
	return out
}

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

// Facts are the per-term results of validating a program, for its live
// terms: Order lists them topologically, and the tables hold each one's
// rescale chain (nil for a Plain term and for a Cipher term below no
// RESCALE or MOD_SWITCH), log2 scale and number of polynomials (zero exactly
// for a Plain term). Terms share chains, which are never written. Waterline
// is the largest scale of a leaf.
type Facts struct {
	Order     []*core.Term
	Chains    *core.TermMap[Chain]
	Scales    *core.TermMap[float64]
	Polys     *core.TermMap[int]
	Waterline float64
}

// Validate is Check with the chains of the Cipher terms and the scales of
// the live terms returned as maps; the benchmark's per-pass replay calls it.
func Validate(p *core.Program, maxRescaleLog float64) (map[*core.Term]Chain, map[*core.Term]float64, error) {
	f, err := Check(p, maxRescaleLog)
	if err != nil {
		return nil, nil, err
	}
	chains := make(map[*core.Term]Chain, len(f.Order))
	scales := make(map[*core.Term]float64, len(f.Order))
	for _, t := range f.Order {
		scales[t] = f.Scales.Get(t)
		if f.Polys.Get(t) != 0 {
			chains[t] = f.Chains.Get(t)
		}
	}
	return chains, scales, nil
}

// Check checks that a transformed program satisfies every constraint of the
// scheme, in one walk over its topological order, and returns the Facts
// parameter selection and lowering read. Everything is derived from the
// program itself.
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
func Check(p *core.Program, maxRescaleLog float64) (*Facts, error) {
	const tolerance = 1e-9
	order := p.TopoSort()
	f := &Facts{Order: order, Chains: core.NewTermMap[Chain](p), Scales: core.NewTermMap[float64](p), Polys: core.NewTermMap[int](p)}
	chains, scales, polys := f.Chains, f.Scales, f.Polys
	scaleOf := scales.Get
	var scaleErr, polyErr *ConstraintError
	for _, t := range order {
		scale := rewrite.ScaleOf(t, scaleOf)
		scales.Set(t, scale)
		if scaleErr == nil {
			switch t.Op {
			case core.OpAdd, core.OpSub:
				if a, b := scales.Get(t.Parm(0)), scales.Get(t.Parm(1)); math.Abs(a-b) > tolerance {
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
		if t.IsLeaf() {
			f.Waterline = max(f.Waterline, scale)
		}
		n := 2
		for _, parm := range t.Parms() {
			pn := polys.Get(parm)
			if pn == 0 {
				continue
			}
			n = max(n, pn)
			pc := chains.Get(parm)
			if !cipher {
				chain, cipher = pc, true
				continue
			}
			if !chain.Equal(pc) {
				return nil, &ConstraintError{Term: t, Constraint: 1,
					Detail: fmt.Sprintf("operand coefficient moduli differ: chains %v vs %v", chain, pc)}
			}
			chain = chain.merge(pc)
		}
		if !cipher {
			continue
		}
		switch t.Op {
		case core.OpRescale:
			chain = append(slices.Clip(chain), t.LogScale)
		case core.OpModSwitch:
			chain = append(slices.Clip(chain), ModSwitchMark)
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
		chains.Set(t, chain)
		polys.Set(t, n)
	}
	switch {
	case scaleErr != nil:
		return nil, scaleErr
	case polyErr != nil:
		return nil, polyErr
	}
	return f, nil
}
