package compile

import (
	"eva/internal/analysis"
)

// InstrUnits is the cost model's price of instruction id as the executor runs
// it, the one rule that Cost sums, the digit-size choice minimises and the
// profiler samples: KeySwitchPrice of its key-switching work (Instr.Work),
// plus the OpUnits of its kind. Inputs, plain values, rotations and
// relinearizations (whose work is all key switching) and a KindRescaleQP
// (whose division by P·q_ℓ is its work) pay no OpUnits.
func (r *Result) InstrUnits(id int32) float64 {
	in, m := &r.Instrs[id], r.CostModel()
	units := 0.0
	if in.Work != (analysis.KeySwitch{}) {
		units = m.KeySwitchPrice(in.Work)
	}
	switch in.Kind {
	case KindInput, KindInvariant, KindPlain, KindRotate, KindRotateQP, KindRelinearize, KindRelinearizeQP, KindRescaleQP:
		return units
	}
	return units + m.OpUnits(in.Op, in.Level, in.Kind == KindMul)
}

// Cost estimates the program's execution cost under its cost model
// (Result.CostModel): every instruction is priced by InstrUnits, and the
// critical path is the most expensive dependence chain.
func (r *Result) Cost() analysis.CostEstimate {
	est := analysis.CostEstimate{ByOp: map[string]float64{}}
	path := make([]float64, len(r.Instrs)) // cost of the dearest chain ending at each instruction
	for i := range r.Instrs {
		in := &r.Instrs[i]
		cost := r.InstrUnits(int32(i))
		est.Total += cost
		est.ByOp[in.Op.String()] += cost
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
// polynomials for a KindMul result and two otherwise (plus their special
// limbs for a result over Q∪P), and one float64 vector of 2^LogN for a plain
// value.
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
		case in.Kind == KindMul:
			size[i] = r.CiphertextBytes(in.Level, 3)
		case in.Basis == BasisQP:
			size[i] = r.CiphertextBytes(in.Level, 2) + 2*8*int64(len(r.Plan.SpecialBits))<<uint(r.LogN)
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

// KeySetBytes is the size of the evaluation keys execute.NewContext builds
// for the program: the relinearization key and one Galois key per element,
// each SwitchingKeyBytes at its level from KeyLevels.
func (r *Result) KeySetBytes() int64 {
	m := r.CostModel()
	rot, relin := r.KeyLevels()
	total := m.SwitchingKeyBytes(relin)
	for _, level := range rot {
		total += m.SwitchingKeyBytes(level)
	}
	return total
}

// CiphertextBytes is the size of a ciphertext of the given number of
// polynomials at a level: each polynomial holds 2^LogN 64-bit coefficients
// in every limb the chain has left (at least one).
func (r *Result) CiphertextBytes(level, polys int) int64 {
	limbs := int64(max(len(r.Plan.BitSizes)-level, 1))
	return 8 * (int64(1) << uint(r.LogN)) * limbs * int64(polys)
}
