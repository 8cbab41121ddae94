package compile

import (
	"eva/internal/analysis"
	"eva/internal/core"
)

// KeySwitchLoad counts the program's key switches per chain position as the
// executor runs them: a RELINEARIZE is one decomposition and one key; a
// rotation is one key, and the rotations of one hoist set share a single
// decomposition, which a lone rotation pays alone.
func (r *Result) KeySwitchLoad() analysis.KeySwitchLoad {
	load := analysis.KeySwitchLoad{}
	for i := range r.Instrs {
		in := &r.Instrs[i]
		if !in.Cipher || !(in.Term.Op == core.OpRelinearize || in.Term.Op.IsRotation()) {
			continue
		}
		l := load[in.Level]
		l.Keys++
		if in.HoistPos == 0 { // a relinearization, a lone rotation or a set's first member
			l.Decompositions++
		}
		load[in.Level] = l
	}
	return load
}

// Cost estimates the program's execution cost under its cost model
// (Result.CostModel): every Cipher instruction is priced by OpUnits at its
// level, and the critical path is the most expensive dependence chain.
func (r *Result) Cost() analysis.CostEstimate {
	m := r.CostModel()
	est := analysis.CostEstimate{ByOp: map[string]float64{}}
	path := make([]float64, len(r.Instrs)) // cost of the dearest chain ending at each instruction
	for i := range r.Instrs {
		in := &r.Instrs[i]
		var cost float64
		if in.Cipher && !in.Term.IsLeaf() {
			cost = m.OpUnits(in.Term.Op, in.Level, r.degree2(in))
		}
		est.Total += cost
		est.ByOp[in.Term.Op.String()] += cost
		longest := 0.0
		for _, q := range in.Parms {
			longest = max(longest, path[q])
		}
		path[i] = longest + cost
		est.CriticalPath = max(est.CriticalPath, path[i])
	}
	return est
}

// PeakMemoryBytes statically estimates the peak resident bytes of one
// execution: it replays the executor's liveness discipline (a value dies when
// its last reference is consumed, Instr.Refs) over the topological order and
// charges each live value its size — CiphertextBytes at its level, with three
// polynomials for an unrelinearized ciphertext-ciphertext product and two
// otherwise, and one float64 vector of 2^LogN for a plain value.
//
// The executor evaluates in whatever order the scheduler picks, so the true
// peak can exceed this sequential estimate when many instructions are in
// flight; admission control treats it as a per-execution budget unit, not an
// exact bound.
func (r *Result) PeakMemoryBytes() int64 {
	refs := make([]int32, len(r.Instrs))
	size := make([]int64, len(r.Instrs))
	var live, peak int64
	for i := range r.Instrs {
		in := &r.Instrs[i]
		switch {
		case !in.Cipher:
			size[i] = 8 << uint(r.LogN)
		case r.degree2(in):
			size[i] = r.CiphertextBytes(in.Level, 3)
		default:
			size[i] = r.CiphertextBytes(in.Level, 2)
		}
		refs[i] = in.Refs
		live += size[i]
		peak = max(peak, live)
		for _, q := range in.Parms {
			if refs[q]--; refs[q] == 0 {
				live -= size[q]
			}
		}
	}
	return peak
}

// CiphertextBytes is the size of a ciphertext of the given number of
// polynomials at a level: each polynomial holds 2^LogN 64-bit coefficients
// in every limb the chain has left (at least one).
func (r *Result) CiphertextBytes(level, polys int) int64 {
	limbs := int64(max(len(r.Plan.BitSizes)-level, 1))
	return 8 * (int64(1) << uint(r.LogN)) * limbs * int64(polys)
}

// degree2 reports a ciphertext-ciphertext product: a degree-2 ciphertext until
// the next RELINEARIZE.
func (r *Result) degree2(in *Instr) bool {
	return in.Term.Op == core.OpMultiply && r.Instrs[in.Parms[0]].Cipher && r.Instrs[in.Parms[1]].Cipher
}
