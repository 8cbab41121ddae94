package compile

import (
	"slices"

	"eva/internal/analysis"
	"eva/internal/core"
)

// InstrUnits is the cost model's price of instruction id as the executor runs
// it, the one rule that Cost sums, the digit-size choice minimises and the
// profiler samples: KeySwitchPrice of the key-switching work keySwitch finds,
// plus OpUnits for any other Cipher instruction except a rescale that divides
// by P·q_ℓ in one step (its KeySwitchPrice is the whole division); 0 for
// leaves and plain values.
func (r *Result) InstrUnits(id int32) float64 {
	in, m := &r.Instrs[id], r.CostModel()
	if !in.Cipher || in.Term.IsLeaf() {
		return 0
	}
	units := 0.0
	ks, ok := r.keySwitch(in)
	if ok {
		units = m.KeySwitchPrice(ks)
	}
	if op := in.Term.Op; op == core.OpRelinearize || op.IsRotation() || ks.Rescale {
		return units
	}
	return units + m.OpUnits(in.Term.Op, in.Level, r.degree2(in))
}

// keySwitch reports whether in does key-switching work as the executor runs
// it, and which. A relinearization, or a rotation outside any hoist set,
// decomposes and applies its key. A hoist set's batch decomposes once, for
// its first member, and takes each step once, for the first member taking
// it; later members with that step reuse its result and do nothing. Either
// mods down its result unless it defers (Instr.DeferModDown). A value left
// over Q∪P is finished by its consumer: the root of a fused chain with
// deferred leaves multiplies each over the special limbs as well, it or a
// sum with a deferred operand lifts a Q-only operand as P·x, and mods down
// unless it defers in turn; a rescale of a deferred value divides by P·q_ℓ in
// one step.
func (r *Result) keySwitch(in *Instr) (ks analysis.KeySwitch, ok bool) {
	ks.Level = in.Level
	if in.Chain != nil {
		for _, pr := range in.Chain.Products {
			if r.Instrs[pr.Ct].DeferModDown {
				ks.Leaves++
			}
		}
		ks.ModDown, ks.Lift = !in.DeferModDown, ks.Leaves < len(in.Chain.Products)
		return ks, ks.Leaves > 0
	}
	switch op := in.Term.Op; {
	case !in.Cipher:
		return ks, false
	case op == core.OpRescale:
		operand := &r.Instrs[in.Parms[0]]
		ks.Level, ks.Rescale = operand.Level, operand.DeferModDown
		return ks, ks.Rescale
	case op == core.OpAdd || op == core.OpSub:
		if !r.deferredOperand(in) {
			return ks, false
		}
		a, b := &r.Instrs[in.Parms[0]], &r.Instrs[in.Parms[1]]
		ks.ModDown, ks.Lift = !in.DeferModDown, a.DeferModDown != b.DeferModDown
		return ks, true
	case op != core.OpRelinearize && !op.IsRotation():
		return ks, false
	case in.Hoist >= 0 && slices.Index(r.Hoists[in.Hoist].Steps, in.Rot) < int(in.HoistPos):
		return ks, true
	}
	ks.Decompose, ks.ApplyKey, ks.ModDown = in.HoistPos == 0, true, !in.DeferModDown
	return ks, true
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
// otherwise (plus their special limbs for a value left over Q∪P,
// Instr.DeferModDown), and one float64 vector of 2^LogN for a plain value.
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
		case in.DeferModDown:
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
