package analysis

import (
	"math"

	"eva/internal/core"
)

// CostModel estimates the execution cost of a compiled program under a simple
// RNS-CKKS cost model: the dominant cost of every homomorphic operation is a
// number of "limb passes" — length-N NTT or coefficient-wise passes over each
// remaining RNS limb — so the cost of an instruction is proportional to
// N·log(N) for transform-bound operations and to N for element-wise ones,
// times the number of limbs alive at the instruction's level. Key-switching
// operations (relinearization and rotation) additionally pay one pass per
// (digit, extended limb) pair, where hybrid key switching groups the limbs
// into digits of DigitSize primes and extends them by as many special primes.
// This is the quantity EVA's parameter-minimizing passes reduce, and it
// explains the Table 5/6 relationship: fewer chain primes means both fewer
// and cheaper operations. The model only prices; compile.Result applies it to
// a compiled program (InstrUnits, Cost, PeakMemoryBytes).
type CostModel struct {
	// LogN is the ring-degree exponent used for the estimate.
	LogN int
	// TotalLevels is the length of the modulus chain (without the special primes).
	TotalLevels int
	// DigitSize is the key-switch digit size α (the number of special
	// primes); 0 is read as 1, the per-prime decomposition.
	DigitSize int
}

// CostEstimate summarizes a program's estimated execution cost.
type CostEstimate struct {
	Total float64
	ByOp  map[string]float64
	// CriticalPath is the estimated cost along the most expensive
	// dependence chain: a lower bound on parallel execution time.
	CriticalPath float64
}

// OpUnits returns the model's cost of one instruction in abstract
// "limb-element operations", given its opcode, its chain position (the
// compiled instruction's Level; deeper positions operate on fewer limbs), and
// — for multiplies — whether both operands are ciphertexts. Leaves and plain
// terms cost 0 by definition and are the caller's responsibility to exclude.
// Key switching is priced apart (KeySwitchPrice), so a relinearization or
// rotation is priced there, not here. The per-op shape here is what
// calibration (internal/profile) fits measured wall-clock coefficients
// against.
func (m CostModel) OpUnits(op core.OpCode, chainPos int, ctct bool) float64 {
	n, logN, limbs := m.shape(chainPos)
	switch {
	case op == core.OpMultiply:
		// Element-wise limb products; ct-pt and ct-ct differ by a small factor.
		factor := 2.0
		if ctct {
			factor = 4
		}
		return factor * n * limbs
	case op == core.OpRescale:
		return n * logN * limbs
	default:
		return n * limbs
	}
}

// shape returns the ring degree, its logarithm and the number of limbs alive
// at a chain position, as floats for the unit formulas.
func (m CostModel) shape(chainPos int) (n, logN, limbs float64) {
	return math.Exp2(float64(m.LogN)), float64(m.LogN), float64(max(m.TotalLevels-chainPos, 1))
}

// KeySwitchUnits prices the three parts of one hybrid key switch at a chain
// position: transforms at n·logN each, element-wise multiply-accumulate
// passes at n each. With d = ⌈limbs/α⌉ digits over e = limbs+α extended limbs:
//
//	decompose  limbs inverse transforms, then per digit of s primes a basis
//	           conversion (s residues and the overshoot row) into, and a
//	           forward transform of, the e−s limbs outside it
//	applyKey   the inner product, 2·d·e passes (both halves of the key)
//	modDown    two mod-downs, one per component: α inverse and limbs forward
//	           transforms, an (α+1)-term conversion into each of the limbs,
//	           the final scaling
//
// A relinearization or a lone rotation pays all three; the rotations of one
// hoisted batch share a single decompose, and a key switch whose mod-down is
// deferred leaves modDown to the consumer that finishes its value.
func (m CostModel) KeySwitchUnits(chainPos int) (decompose, applyKey, modDown float64) {
	n, logN, limbs := m.shape(chainPos)
	alpha := float64(max(m.DigitSize, 1))
	ext := limbs + alpha
	transforms, passes := limbs, 0.0
	for rest := limbs; rest > 0; rest -= alpha {
		s := min(alpha, rest)
		transforms += ext - s
		passes += (ext - s) * (s + 1)
	}
	decompose = n*logN*transforms + n*passes
	applyKey = n * 2 * math.Ceil(limbs/alpha) * ext
	modDown = n*logN*2*(alpha+limbs) + n*2*limbs*(alpha+2)
	return decompose, applyKey, modDown
}

// FusedRescaleUnits prices the rescale of a deferred value at a chain
// position, which divides both components by P·q_ℓ in one step: per
// component α+1 inverse transforms (the special limbs and the dropped one), an
// (α+2)-term conversion into, a forward transform of and the final scaling of
// each of the limbs−1 remaining limbs. It replaces a mod-down (modDown of
// KeySwitchUnits) followed by a RESCALE (OpUnits).
func (m CostModel) FusedRescaleUnits(chainPos int) float64 {
	n, logN, limbs := m.shape(chainPos)
	alpha := float64(max(m.DigitSize, 1))
	return n*logN*2*(alpha+limbs) + n*2*(limbs-1)*(alpha+3)
}

// KeySwitch is the key-switching work of one instruction as the executor
// runs it, at chain position Level: Decompose its input into digits, ApplyKey
// one switching key to them, and ModDown the result out of the extended
// basis. A relinearization or rotation does what its hoisted batch leaves to
// it, and skips ModDown when its result stays over Q∪P; the consumer that
// finishes such a value does it instead. The root of a fused chain finishes
// the sum of its Leaves deferred operands, multiplying each by a plaintext
// over the α special limbs too; a sum with a deferred operand finishes it
// with ModDown; and a Rescale of a deferred value (Level is then the
// operand's) divides by P·q_ℓ in one step. A chain root or sum that adds a
// Q-only value to a deferred one Lifts it into the extended basis as P·x.
type KeySwitch struct {
	Level                                       int
	Decompose, ApplyKey, ModDown, Rescale, Lift bool
	Leaves                                      int
}

// ChainKeySwitches is one relinearization at every position of a chain of the
// given length: the price a digit size is chosen for when it may depend on the
// chain but not on any one program (pipeline stages).
func ChainKeySwitches(chainLength int) []KeySwitch {
	switches := make([]KeySwitch, chainLength)
	for pos := range switches {
		switches[pos] = KeySwitch{Level: pos, Decompose: true, ApplyKey: true, ModDown: true}
	}
	return switches
}

// KeySwitchPrice sums the KeySwitchUnits parts the switches do, their fused
// rescales (FusedRescaleUnits), the special-limb products of their deferred
// leaves (what a ciphertext-plaintext product costs, OpUnits, over α limbs
// instead of the chain's), and their lifts (per component, one pass over the
// chain limbs and one over the special limbs).
func (m CostModel) KeySwitchPrice(switches ...KeySwitch) float64 {
	total := 0.0
	for _, ks := range switches {
		decompose, applyKey, modDown := m.KeySwitchUnits(ks.Level)
		if ks.Decompose {
			total += decompose
		}
		if ks.ApplyKey {
			total += applyKey
		}
		if ks.ModDown {
			total += modDown
		}
		if ks.Rescale {
			total += m.FusedRescaleUnits(ks.Level)
		}
		n, _, limbs := m.shape(ks.Level)
		alpha := float64(max(m.DigitSize, 1))
		total += float64(ks.Leaves) * 2 * n * alpha
		if ks.Lift {
			total += 2 * n * (limbs + alpha)
		}
	}
	return total
}

// ParallelSpeedupBound returns the cost model's upper bound on the speedup an
// ideal parallel schedule can achieve over sequential execution (total work
// divided by critical-path work) — the quantity that limits Figure 7 scaling.
func (e CostEstimate) ParallelSpeedupBound() float64 {
	if e.CriticalPath <= 0 {
		return 1
	}
	return e.Total / e.CriticalPath
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
