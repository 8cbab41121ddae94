package analysis

import (
	"testing"

	"eva/internal/core"
)

func TestParallelSpeedupBoundDegenerate(t *testing.T) {
	var e CostEstimate
	if e.ParallelSpeedupBound() != 1 {
		t.Error("degenerate estimate should report a bound of 1")
	}
}

// TestKeySwitchUnitsShape pins the hybrid key-switch term of the model on the
// 16-prime chain of the bench SqueezeNet: the two halves add up to what
// OpUnits charges, a zero DigitSize means per-prime, the limb-transform counts
// are the ones the backend performs (306 per-prime, 120 in digits of four),
// and grouping helps a full chain but not a single remaining limb.
func TestKeySwitchUnitsShape(t *testing.T) {
	const logN, chain = 10, 16
	n := float64(int(1) << logN)
	transforms := func(alpha, pos int) float64 {
		// Passes are charged n each, transforms n·logN: read the transform
		// count off the difference between two ring degrees.
		at := func(lg int) float64 {
			d, k := CostModel{LogN: lg, TotalLevels: chain, DigitSize: alpha}.KeySwitchUnits(pos)
			return (d + k) / float64(int(1)<<lg)
		}
		return at(logN+1) - at(logN)
	}
	if got := transforms(1, 0); got != 306 {
		t.Errorf("per-prime key switch at 16 limbs: %v limb transforms, want 306", got)
	}
	if got := transforms(4, 0); got != 120 {
		t.Errorf("key switch in digits of 4 at 16 limbs: %v limb transforms, want 120", got)
	}

	perPrime := CostModel{LogN: logN, TotalLevels: chain}
	explicit := CostModel{LogN: logN, TotalLevels: chain, DigitSize: 1}
	grouped := CostModel{LogN: logN, TotalLevels: chain, DigitSize: 4}
	for _, op := range []core.OpCode{core.OpRelinearize, core.OpRotateLeft, core.OpRotateRight} {
		if perPrime.OpUnits(op, 0, false) != explicit.OpUnits(op, 0, false) {
			t.Errorf("%s: DigitSize 0 and 1 are priced differently", op)
		}
		d, k := grouped.KeySwitchUnits(3)
		if got := grouped.OpUnits(op, 3, false); got != d+k {
			t.Errorf("%s: OpUnits %v, decompose+perKey %v", op, got, d+k)
		}
	}
	if ratio := grouped.OpUnits(core.OpRelinearize, 0, false) / perPrime.OpUnits(core.OpRelinearize, 0, false); ratio < 0.35 || ratio > 0.6 {
		t.Errorf("digits of 4 at 16 limbs are priced at %.2f of per-prime; the backend measures about 0.5", ratio)
	}
	if grouped.OpUnits(core.OpRotateLeft, chain-1, false) <= perPrime.OpUnits(core.OpRotateLeft, chain-1, false) {
		t.Error("with one limb left, three more special primes should cost, not save")
	}
	if units := perPrime.OpUnits(core.OpRelinearize, 0, false); units < n {
		t.Errorf("implausible key-switch units %v", units)
	}
}

// TestSwitchingKeyBytes: ⌈L/α⌉ digits of two polynomials over L+α limbs.
func TestSwitchingKeyBytes(t *testing.T) {
	cases := []struct {
		model CostModel
		limbs int64 // limb count of one key
	}{
		{CostModel{LogN: 10, TotalLevels: 16}, 16 * 2 * 17},
		{CostModel{LogN: 10, TotalLevels: 16, DigitSize: 4}, 4 * 2 * 20},
		{CostModel{LogN: 14, TotalLevels: 5, DigitSize: 2}, 3 * 2 * 7},
	}
	for _, c := range cases {
		if got, want := c.model.SwitchingKeyBytes(), c.limbs*8<<uint(c.model.LogN); got != want {
			t.Errorf("%+v: %d bytes, want %d", c.model, got, want)
		}
	}
}
