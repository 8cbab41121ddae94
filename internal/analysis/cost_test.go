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
// 16-prime chain of the bench SqueezeNet: the three parts add up to what
// KeySwitchPrice charges a whole switch, a zero DigitSize means per-prime, the
// limb-transform counts are the ones the backend performs (306 per-prime, 120
// in digits of four), and grouping helps a full chain but not a single
// remaining limb.
func TestKeySwitchUnitsShape(t *testing.T) {
	const logN, chain = 10, 16
	n := float64(int(1) << logN)
	transforms := func(alpha, pos int) float64 {
		// Passes are charged n each, transforms n·logN: read the transform
		// count off the difference between two ring degrees.
		at := func(lg int) float64 {
			d, k, md := CostModel{LogN: lg, TotalLevels: chain, DigitSize: alpha}.KeySwitchUnits(pos)
			return (d + k + md) / float64(int(1)<<lg)
		}
		return at(logN+1) - at(logN)
	}
	if got := transforms(1, 0); got != 306 {
		t.Errorf("per-prime key switch at 16 limbs: %v limb transforms, want 306", got)
	}
	if got := transforms(4, 0); got != 120 {
		t.Errorf("key switch in digits of 4 at 16 limbs: %v limb transforms, want 120", got)
	}

	whole := func(m CostModel, pos int) float64 {
		return m.KeySwitchPrice(KeySwitch{Level: pos, Decompose: true, ApplyKey: true, ModDown: true})
	}
	perPrime := CostModel{LogN: logN, TotalLevels: chain}
	explicit := CostModel{LogN: logN, TotalLevels: chain, DigitSize: 1}
	grouped := CostModel{LogN: logN, TotalLevels: chain, DigitSize: 4}
	if whole(perPrime, 0) != whole(explicit, 0) {
		t.Error("DigitSize 0 and 1 are priced differently")
	}
	d, k, md := grouped.KeySwitchUnits(3)
	if got := whole(grouped, 3); got != d+k+md {
		t.Errorf("KeySwitchPrice %v, decompose+applyKey+modDown %v", got, d+k+md)
	}
	if ratio := whole(grouped, 0) / whole(perPrime, 0); ratio < 0.35 || ratio > 0.6 {
		t.Errorf("digits of 4 at 16 limbs are priced at %.2f of per-prime; the backend measures about 0.5", ratio)
	}
	if whole(grouped, chain-1) <= whole(perPrime, chain-1) {
		t.Error("with one limb left, three more special primes should cost, not save")
	}
	if units := whole(perPrime, 0); units < n {
		t.Errorf("implausible key-switch units %v", units)
	}
}

// TestKeySwitchPriceHalves: KeySwitchPrice charges exactly the parts each
// switch does, a deferred leaf a ciphertext-plaintext product over the α
// special limbs, a lift one such product over the chain and special limbs,
// and sums a list.
func TestKeySwitchPriceHalves(t *testing.T) {
	m := CostModel{LogN: 10, TotalLevels: 16, DigitSize: 4}
	d, k, md := m.KeySwitchUnits(5)
	if md <= k {
		t.Errorf("two mod-downs (%v units) priced below the key's inner product (%v)", md, k)
	}
	leaf := m.OpUnits(core.OpMultiply, 16-4, false) // a product over 4 limbs
	lift := m.OpUnits(core.OpMultiply, 5-4, false)  // a product over the 11 chain and 4 special limbs
	cases := []struct {
		ks   KeySwitch
		want float64
	}{
		{KeySwitch{Level: 5, Decompose: true}, d},
		{KeySwitch{Level: 5, ApplyKey: true}, k},
		{KeySwitch{Level: 5, ModDown: true}, md},
		{KeySwitch{Level: 5, Decompose: true, ApplyKey: true, ModDown: true}, d + k + md},
		{KeySwitch{Level: 5, Decompose: true, ApplyKey: true}, d + k},
		{KeySwitch{Level: 5, ModDown: true, Leaves: 3}, md + 3*leaf},
		{KeySwitch{Level: 5, Lift: true}, lift},
		{KeySwitch{Level: 5, ModDown: true, Lift: true, Leaves: 1}, md + lift + leaf},
		{KeySwitch{Level: 5}, 0},
	}
	total := 0.0
	for _, c := range cases {
		if got := m.KeySwitchPrice(c.ks); got != c.want {
			t.Errorf("%+v: %v units, want %v", c.ks, got, c.want)
		}
		total += c.want
	}
	all := make([]KeySwitch, len(cases))
	for i, c := range cases {
		all[i] = c.ks
	}
	if got := m.KeySwitchPrice(all...); got != total {
		t.Errorf("the %d together cost %v, want %v", len(all), got, total)
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
