package analysis

import (
	"testing"

	"eva/internal/core"
	"eva/internal/rewrite"
)

func TestCostModelBasicProperties(t *testing.T) {
	p := buildCompiledX2Y3(t)
	chains, _, err := Validate(p, 60)
	if err != nil {
		t.Fatal(err)
	}
	maxChain := 0
	for _, c := range chains {
		if len(c) > maxChain {
			maxChain = len(c)
		}
	}
	model := CostModel{LogN: 13, TotalLevels: maxChain + 2}
	est := model.EstimateCost(p)
	if est.Total <= 0 || est.CriticalPath <= 0 {
		t.Fatal("cost estimate should be positive")
	}
	if est.CriticalPath > est.Total {
		t.Error("critical path cannot exceed total work")
	}
	if est.ParallelSpeedupBound() < 1 {
		t.Error("parallel speedup bound below 1")
	}
	if len(est.Heaviest) == 0 || est.Heaviest[0].Cost < est.Heaviest[len(est.Heaviest)-1].Cost {
		t.Error("heaviest instructions not sorted")
	}
	// Key switching must dominate this multiplication-heavy program.
	if est.ByOp["RELINEARIZE"] <= est.ByOp["ADD"] {
		t.Errorf("expected relinearization to dominate: %v", est.ByOp)
	}
}

// TestCostModelRewardsShorterChains checks the model captures the paper's
// core performance argument: the same program compiled with a longer modulus
// chain (the CHET-style fixed rescaling) costs more than with the waterline
// pipeline.
func TestCostModelRewardsShorterChains(t *testing.T) {
	// Scales of 2^30 make waterline rescaling skip every other level, which is
	// exactly where EVA saves chain primes over the per-multiply discipline.
	build := func() *core.Program {
		p := core.MustNewProgram("chain", 8)
		x, _ := p.NewInput("x", core.TypeCipher, 8, 30)
		y, _ := p.NewInput("y", core.TypeCipher, 8, 30)
		cur, _ := p.NewBinary(core.OpMultiply, x, y)
		for i := 0; i < 3; i++ {
			sq, _ := p.NewBinary(core.OpMultiply, cur, cur)
			cur = sq
		}
		p.AddOutput("out", cur, 30)
		return p
	}

	waterline := build()
	if err := rewrite.Transform(waterline, rewrite.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	fixed := build()
	opts := rewrite.DefaultOptions()
	opts.Rescale = rewrite.RescaleFixedMax
	opts.ModSwitch = rewrite.ModSwitchLazy
	if err := rewrite.Transform(fixed, opts); err != nil {
		t.Fatal(err)
	}

	chainLen := func(p *core.Program) int {
		chains, err := ComputeChains(p)
		if err != nil {
			t.Fatal(err)
		}
		max := 0
		for _, c := range chains {
			if len(c) > max {
				max = len(c)
			}
		}
		return max
	}
	wlLevels, fxLevels := chainLen(waterline)+2, chainLen(fixed)+2

	wlCost := CostModel{LogN: 14, TotalLevels: wlLevels}.EstimateCost(waterline)
	fxCost := CostModel{LogN: 14, TotalLevels: fxLevels}.EstimateCost(fixed)
	if wlCost.Total >= fxCost.Total {
		t.Errorf("waterline cost %.3g should be below fixed-rescale cost %.3g", wlCost.Total, fxCost.Total)
	}
}

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
