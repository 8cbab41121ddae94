package analysis

import (
	"eva/internal/core"
	"eva/internal/rewrite"
)

// EstimatePeakMemoryBytes statically estimates the peak resident bytes of one
// execution of a compiled program: it replays the executor's liveness
// discipline (a value dies when its last use is evaluated) over the
// topological order and charges each live value its RNS-CKKS size — a
// ciphertext at chain position l holds its polynomials as
// (TotalLevels - l) limbs of N = 2^LogN 64-bit coefficients, with three
// polynomials for an unrelinearized ciphertext-ciphertext product and two
// otherwise, while plain values are one float64 vector of length N.
//
// The executor frees values as refcounts hit zero but evaluates in whatever
// order the scheduler picks, so the true peak can exceed this sequential
// estimate when many instructions are in flight; callers using it for
// admission control should treat it as a per-execution budget unit, not an
// exact bound.
func (m CostModel) EstimatePeakMemoryBytes(p *core.Program) int64 {
	levels := rewrite.Levels(p)
	types := p.InferTypes()
	n := int64(1) << uint(m.LogN)

	bytesOf := func(t *core.Term) int64 {
		if types[t] != core.TypeCipher {
			return 8 * n // one plain float64 vector
		}
		limbs := int64(m.TotalLevels - levels[t])
		if limbs < 1 {
			limbs = 1
		}
		polys := int64(2)
		if t.Op == core.OpMultiply &&
			types[t.Parm(0)] == core.TypeCipher && types[t.Parm(1)] == core.TypeCipher {
			polys = 3 // degree-2 product until the next RELINEARIZE
		}
		return 8 * n * limbs * polys
	}

	order := p.TopoSort()
	outputRefs := map[*core.Term]int{}
	for _, o := range p.Outputs() {
		outputRefs[o.Term]++
	}
	refcounts := make(map[*core.Term]int, len(order))
	for _, t := range order {
		refcounts[t] = t.NumUses() + outputRefs[t]
	}

	var live, peak int64
	alive := make(map[*core.Term]int64, len(order))
	for _, t := range order {
		b := bytesOf(t)
		alive[t] = b
		live += b
		if live > peak {
			peak = live
		}
		for _, parm := range t.Parms() {
			refcounts[parm]--
			if refcounts[parm] == 0 {
				live -= alive[parm]
				delete(alive, parm)
			}
		}
	}
	return peak
}

// SwitchingKeyBytes returns the size of one switching key (the
// relinearization key, or one rotation's Galois key): ⌈L/α⌉ digits, each a
// pair of polynomials over the L chain primes and the α special primes, with
// L = TotalLevels and α = DigitSize. Keys do not shrink with the level, so
// this is also what each key occupies for the lifetime of a context.
func (m CostModel) SwitchingKeyBytes() int64 {
	alpha := int64(max(m.DigitSize, 1))
	limbs := int64(m.TotalLevels)
	digits := (limbs + alpha - 1) / alpha
	return digits * 2 * (limbs + alpha) * 8 << uint(m.LogN)
}
