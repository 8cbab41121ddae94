package analysis

import (
	"slices"
	"testing"
)

// topLevelSwitches is n whole key switches at the top of the chain.
func topLevelSwitches(n int) []KeySwitch {
	return slices.Repeat([]KeySwitch{{Level: 0, Decompose: true, ApplyKey: true}}, n)
}

// TestSelectKeySwitchDigitsBudget pins the never-raise-logN rule on the
// paper's Sobel plan: five 60-bit chain primes are 360 of logN 14's 438 bits
// with one special prime, so a second special prime fits (420) and a third
// (480) does not, however much the model would like it.
func TestSelectKeySwitchDigitsBudget(t *testing.T) {
	sobel := func() *ParameterPlan {
		return &ParameterPlan{BitSizes: []int{60, 60, 60, 60, 60}, SpecialBits: []int{60}}
	}
	pl := sobel()
	pl.SelectKeySwitchDigits(topLevelSwitches(10), 14, 438)
	if !slices.Equal(pl.SpecialBits, []int{60, 60}) {
		t.Errorf("secure Sobel plan under relinearization-heavy work: special primes %v, want [60 60]", pl.SpecialBits)
	}
	if pl.LogQP() > 438 {
		t.Errorf("plan grew to %d bits, budget 438", pl.LogQP())
	}
	if got := sobel().specialBitsFor(3, 438); got != nil {
		t.Errorf("three special primes were sized %v; a 180-bit digit cannot fit in 438-300 bits", got)
	}
	// Unbounded (insecure) budgets take whatever the model prefers.
	pl = sobel()
	pl.SelectKeySwitchDigits(topLevelSwitches(10), 14, 0)
	if len(pl.SpecialBits) < 2 {
		t.Errorf("unbounded budget kept %v", pl.SpecialBits)
	}
}

// TestSpecialBitsShrinkToBudget: when α 60-bit special primes do not fit, the
// budget left by the chain is shared evenly — as long as it still covers the
// largest digit.
func TestSpecialBitsShrinkToBudget(t *testing.T) {
	pl := &ParameterPlan{BitSizes: []int{40, 40, 40, 40, 40, 40}, SpecialBits: []int{60}}
	if got, want := pl.specialBitsFor(4, 438), []int{50, 50, 49, 49}; !slices.Equal(got, want) {
		t.Errorf("four special primes in 438-240 bits: %v, want %v", got, want)
	}
	if got, want := pl.specialBitsFor(3, 438), []int{60, 60, 60}; !slices.Equal(got, want) {
		t.Errorf("three special primes in 438-240 bits: %v, want %v", got, want)
	}
	if got := pl.specialBitsFor(5, 438); got != nil {
		t.Errorf("a 200-bit digit was given special primes %v out of 198 bits", got)
	}
	// A partial digit is sized by the full ones: [40 40 40 40] [40 40].
	if got, want := pl.specialBitsFor(4, 410), []int{43, 43, 42, 42}; !slices.Equal(got, want) {
		t.Errorf("four special primes in 410-240 bits: %v, want %v", got, want)
	}
}

// TestSelectKeySwitchDigitsKeepsPerPrime: no key switches, or a modelled gain
// under the threshold, leaves the single special prime alone.
func TestSelectKeySwitchDigitsKeepsPerPrime(t *testing.T) {
	pl := &ParameterPlan{BitSizes: []int{60, 60, 60, 60, 60}, SpecialBits: []int{60}}
	pl.SelectKeySwitchDigits(nil, 14, 0)
	if !slices.Equal(pl.SpecialBits, []int{60}) {
		t.Errorf("no key switches changed the special primes to %v", pl.SpecialBits)
	}
	// One long hoisted batch at the bottom of the chain: a single limb left,
	// where grouping cannot save a transform and every extra special prime
	// widens each mod-down.
	batch := append([]KeySwitch{{Level: 4, Decompose: true}}, slices.Repeat([]KeySwitch{{Level: 4, ApplyKey: true}}, 16)...)
	pl.SelectKeySwitchDigits(batch, 14, 0)
	if !slices.Equal(pl.SpecialBits, []int{60}) {
		t.Errorf("a batch the model cannot speed up changed the special primes to %v", pl.SpecialBits)
	}
}
