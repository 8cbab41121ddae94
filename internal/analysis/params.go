package analysis

import (
	"fmt"
	"math"

	"eva/internal/core"
)

// minPrimeLog is the smallest chain prime the backend can generate.
const minPrimeLog = 20

// SpecialPrimeLog is the preferred (and largest) bit size of a key-switching
// special prime: the maximum rescale value, as in the paper.
const SpecialPrimeLog = 60

// ParameterPlan is the output of the encryption-parameter selection pass: the
// vector of prime bit sizes that must be used to generate the encryption
// parameters, plus bookkeeping used to report Table 6-style statistics.
type ParameterPlan struct {
	// BitSizes lists the chain prime bit sizes in consumption order:
	// BitSizes[0] is consumed by the first RESCALE/MOD_SWITCH after
	// encryption and the last entries hold the output value. The special
	// primes are not included.
	BitSizes []int
	// SpecialBits lists the bit sizes of the key-switching special primes.
	// Their number is the key-switch digit size α: the backend groups the
	// chain primes, from the last-consumed one up, into digits of α.
	// SelectParameters starts every plan at one 60-bit special prime;
	// SelectKeySwitchDigits may replace it.
	SpecialBits []int
	// MaxChainLength is the longest conforming rescale chain over all outputs.
	MaxChainLength int
	// CriticalOutput is the name of the output that determined the plan.
	CriticalOutput string
}

// LogQ returns the total bit count of the chain primes (without the special primes).
func (pl *ParameterPlan) LogQ() int { return sum(pl.BitSizes) }

// LogQP returns the total modulus bit count including the special primes.
func (pl *ParameterPlan) LogQP() int { return pl.LogQ() + sum(pl.SpecialBits) }

// NumPrimes returns the number of coefficient-modulus primes r (including
// every special prime), the quantity the paper's Table 6 reports.
func (pl *ParameterPlan) NumPrimes() int { return len(pl.BitSizes) + len(pl.SpecialBits) }

func sum(bits []int) int {
	total := 0
	for _, b := range bits {
		total += b
	}
	return total
}

// SelectParameters is Facts.SelectParameters over Validate's maps: the
// waterline is the largest scale of a leaf in scales. The benchmark's
// per-pass replay calls it.
func SelectParameters(p *core.Program, chains map[*core.Term]Chain, scales map[*core.Term]float64, maxRescaleLog float64) (*ParameterPlan, error) {
	waterline := 0.0
	for t, s := range scales {
		if t.IsLeaf() {
			waterline = max(waterline, s)
		}
	}
	return selectParameters(p, func(t *core.Term) Chain { return chains[t] }, func(t *core.Term) float64 { return scales[t] }, waterline, maxRescaleLog)
}

// SelectParameters implements the encryption-parameter selection pass of
// Section 6.2: from the validated chains and scales it takes the conforming
// rescale chain and scale of every output, determines the output with the
// longest requirement, and produces the vector of prime bit sizes for the
// modulus chain.
func (f *Facts) SelectParameters(p *core.Program, maxRescaleLog float64) (*ParameterPlan, error) {
	return selectParameters(p, f.Chains.Get, f.Scales.Get, f.Waterline, maxRescaleLog)
}

func selectParameters(p *core.Program, chainOf func(*core.Term) Chain, scaleOf func(*core.Term) float64, waterline, maxRescaleLog float64) (*ParameterPlan, error) {
	if len(p.Outputs()) == 0 {
		return nil, fmt.Errorf("analysis: program has no outputs")
	}
	if maxRescaleLog <= 0 {
		maxRescaleLog = SpecialPrimeLog
	}

	best := -1
	var bestChain Chain
	var bestTail []int
	var bestName string
	maxChain := 0
	for _, o := range p.Outputs() {
		chain := chainOf(o.Term)
		if len(chain) > maxChain {
			maxChain = len(chain)
		}
		// s'_o = o.scale * desired output scale, factorized into primes of at
		// most the maximum rescale size.
		tail := factorizeScale(scaleOf(o.Term)+o.LogScale, maxRescaleLog)
		if score := len(chain) + len(tail); score > best {
			best = score
			bestChain = chain
			bestTail = tail
			bestName = o.Name
		}
	}

	plan := &ParameterPlan{SpecialBits: []int{SpecialPrimeLog}, MaxChainLength: maxChain, CriticalOutput: bestName}
	for _, c := range bestChain {
		if math.IsInf(c, 1) {
			// A position consumed only by MOD_SWITCH constrains nothing; use
			// the waterline so the prime stays as small as possible.
			plan.BitSizes = append(plan.BitSizes, WaterlinePrimeBits(waterline))
			continue
		}
		plan.BitSizes = append(plan.BitSizes, clampPrimeBits(int(math.Ceil(c))))
	}
	plan.BitSizes = append(plan.BitSizes, bestTail...)
	return plan, nil
}

// factorizeScale splits a log2 scale requirement into prime bit sizes of at
// most maxRescaleLog bits each (all but the last equal to the maximum), as
// prescribed by the parameter selection pass.
func factorizeScale(logScale, maxRescaleLog float64) []int {
	if logScale <= 0 {
		return []int{minPrimeLog}
	}
	var out []int
	remaining := logScale
	for remaining > maxRescaleLog {
		out = append(out, int(maxRescaleLog))
		remaining -= maxRescaleLog
	}
	out = append(out, clampPrimeBits(int(math.Ceil(remaining))))
	return out
}

// WaterlinePrimeBits is the bit size of a chain prime that divides no scale
// (a MOD_SWITCH position, or headroom for pipeline chaining): the waterline
// rounded up, within the sizes the backend can generate.
func WaterlinePrimeBits(waterline float64) int {
	return clampPrimeBits(int(math.Ceil(waterline)))
}

func clampPrimeBits(bits int) int {
	if bits < minPrimeLog {
		return minPrimeLog
	}
	if bits > SpecialPrimeLog {
		return SpecialPrimeLog
	}
	return bits
}

// minKeySwitchGain is the fraction by which the modelled key-switch price must
// fall before a digit size above 1 is taken: every extra special prime widens
// each mod-down and enlarges the parameter set, so a marginal modelled gain is
// not worth leaving the per-prime construction.
const minKeySwitchGain = 0.10

// SelectKeySwitchDigits chooses the key-switch digit size α for a plan whose
// chain (pl.BitSizes) and ring degree are already fixed, and sets
// pl.SpecialBits to the α special primes it needs. It takes the feasible α
// whose cost model prices the given key switches lowest, under two rules:
//
//   - The ring degree is never raised. maxLogQP is the total-modulus budget of
//     the degree the one-special-prime plan already needs (0 = unbounded, for
//     insecure test parameters); a digit size whose special primes cannot fit
//     in what the chain leaves of it is not considered.
//   - The special primes together must cover the largest digit (key-switch
//     noise grows with digit product over special product). Each is 60 bits
//     when the budget allows; otherwise the remaining budget is shared evenly,
//     and a digit size whose largest digit exceeds the budget is infeasible.
//
// α > 1 is taken only when it cuts the price by at least minKeySwitchGain, so
// a program without key switches keeps α = 1.
func (pl *ParameterPlan) SelectKeySwitchDigits(switches []KeySwitch, logN, maxLogQP int) {
	m := CostModel{LogN: logN, TotalLevels: len(pl.BitSizes), DigitSize: 1}
	base := m.KeySwitchPrice(switches...)
	best, bestCost := pl.SpecialBits, base
	for alpha := 2; alpha <= len(pl.BitSizes); alpha++ {
		special := pl.specialBitsFor(alpha, maxLogQP)
		if special == nil {
			continue
		}
		m.DigitSize = alpha
		if c := m.KeySwitchPrice(switches...); c < bestCost {
			best, bestCost = special, c
		}
	}
	if bestCost <= (1-minKeySwitchGain)*base {
		pl.SpecialBits = best
	}
}

// specialBitsFor sizes α special primes for the plan's chain within the
// total-modulus budget maxLogQP (0 = unbounded), or returns nil when they
// cannot cover the largest digit.
func (pl *ParameterPlan) specialBitsFor(alpha, maxLogQP int) []int {
	// Digits group the chain from the last-consumed prime up, i.e. from the
	// end of BitSizes.
	largest := 0
	for hi := len(pl.BitSizes); hi > 0; hi -= alpha {
		largest = max(largest, sum(pl.BitSizes[max(hi-alpha, 0):hi]))
	}
	total := alpha * SpecialPrimeLog
	if maxLogQP > 0 {
		total = min(total, maxLogQP-pl.LogQ())
	}
	if total < largest {
		return nil
	}
	special := make([]int, alpha)
	for i := range special {
		special[i] = total / alpha
		if i < total%alpha {
			special[i]++
		}
	}
	return special
}
