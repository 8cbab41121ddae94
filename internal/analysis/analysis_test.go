package analysis

import (
	"math"
	"slices"
	"strings"
	"testing"

	"eva/internal/core"
	"eva/internal/rewrite"
)

// buildX2Y3 builds the Figure 2 example and runs the default transformation
// pipeline so the analyses have something realistic to chew on.
func buildCompiledX2Y3(t *testing.T) *core.Program {
	t.Helper()
	p := core.MustNewProgram("x2y3", 8)
	x, _ := p.NewInput("x", core.TypeCipher, 8, 60)
	y, _ := p.NewInput("y", core.TypeCipher, 8, 30)
	x2, _ := p.NewBinary(core.OpMultiply, x, x)
	y2, _ := p.NewBinary(core.OpMultiply, y, y)
	y3, _ := p.NewBinary(core.OpMultiply, y2, y)
	out, _ := p.NewBinary(core.OpMultiply, x2, y3)
	if err := p.AddOutput("out", out, 30); err != nil {
		t.Fatal(err)
	}
	if err := rewrite.Transform(p, rewrite.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestChainEquality(t *testing.T) {
	inf := ModSwitchMark
	cases := []struct {
		a, b Chain
		want bool
	}{
		{Chain{60, 60}, Chain{60, 60}, true},
		{Chain{60, inf}, Chain{60, 30}, true},
		{Chain{inf, inf}, Chain{60, 30}, true},
		{Chain{60, 30}, Chain{60, 60}, false},
		{Chain{60}, Chain{60, 60}, false},
		{Chain{}, Chain{}, true},
	}
	for i, c := range cases {
		if got := c.a.Equal(c.b); got != c.want {
			t.Errorf("case %d: Equal(%v, %v) = %v, want %v", i, c.a, c.b, got, c.want)
		}
	}
	merged := Chain{60, inf, inf}.merge(Chain{60, 30, inf})
	if merged[0] != 60 || merged[1] != 30 || !math.IsInf(merged[2], 1) {
		t.Errorf("merge result %v", merged)
	}
}

func TestComputeChainsOnCompiledProgram(t *testing.T) {
	p := buildCompiledX2Y3(t)
	chains, _, err := Validate(p, 60)
	if err != nil {
		t.Fatal(err)
	}
	out := p.Outputs()[0].Term
	if len(chains[out]) != 2 {
		t.Errorf("output chain %v, want length 2", chains[out])
	}
	for _, in := range p.Inputs() {
		if len(chains[in]) != 0 {
			t.Errorf("input chain should be empty, got %v", chains[in])
		}
	}
}

func TestComputeChainsDetectsConstraint1Violation(t *testing.T) {
	// x*x rescaled on one branch but not the other, then added: the operand
	// coefficient moduli differ, which is exactly Constraint 1.
	p := core.MustNewProgram("bad", 8)
	x, _ := p.NewInput("x", core.TypeCipher, 8, 30)
	x2, _ := p.NewBinary(core.OpMultiply, x, x)
	rs, _ := p.NewRescale(x2, 30)
	sum, _ := p.NewBinary(core.OpAdd, rs, x)
	p.AddOutput("out", sum, 30)
	_, _, err := Validate(p, 60)
	if got := constraintOf(err); got != 1 {
		t.Fatalf("expected a constraint-1 violation, got %v", err)
	}
	if !strings.Contains(err.Error(), "constraint 1") {
		t.Errorf("error message should mention the constraint: %v", err)
	}
}

func TestValidateScalesDetectsViolations(t *testing.T) {
	// Constraint 2: ADD operands with different scales.
	p := core.MustNewProgram("scales", 8)
	x, _ := p.NewInput("x", core.TypeCipher, 8, 30)
	y, _ := p.NewInput("y", core.TypeCipher, 8, 20)
	sum, _ := p.NewBinary(core.OpAdd, x, y)
	p.AddOutput("out", sum, 30)
	if _, _, err := Validate(p, 60); constraintOf(err) != 2 {
		t.Errorf("expected constraint-2 violation for mismatched ADD scales, got %v", err)
	}

	// Constraint 4: rescale divisor larger than the maximum.
	q := core.MustNewProgram("divisor", 8)
	a, _ := q.NewInput("a", core.TypeCipher, 8, 50)
	a2, _ := q.NewBinary(core.OpMultiply, a, a)
	rs, _ := q.NewRescale(a2, 70)
	q.AddOutput("out", rs, 30)
	if _, _, err := Validate(q, 60); constraintOf(err) != 4 {
		t.Errorf("expected constraint-4 violation for oversized rescale, got %v", err)
	}

	// Scale dropping to zero or below destroys the message.
	r := core.MustNewProgram("zero", 8)
	b, _ := r.NewInput("b", core.TypeCipher, 8, 30)
	b2, _ := r.NewBinary(core.OpMultiply, b, b)
	rs2, _ := r.NewRescale(b2, 60)
	r.AddOutput("out", rs2, 30)
	if _, _, err := Validate(r, 60); constraintOf(err) != 2 {
		t.Errorf("expected violation for vanishing scale, got %v", err)
	}

	// A valid program passes and returns the scales.
	ok := buildCompiledX2Y3(t)
	_, scales, err := Validate(ok, 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(scales) == 0 {
		t.Error("expected scales for every term")
	}
}

func TestValidatePolynomialCounts(t *testing.T) {
	// Multiplying an unrelinearized product violates Constraint 3.
	p := core.MustNewProgram("polys", 8)
	x, _ := p.NewInput("x", core.TypeCipher, 8, 30)
	x2, _ := p.NewBinary(core.OpMultiply, x, x)
	x3, _ := p.NewBinary(core.OpMultiply, x2, x)
	p.AddOutput("out", x3, 30)
	if _, _, err := Validate(p, 60); constraintOf(err) != 3 {
		t.Errorf("expected constraint-3 violation for missing relinearization, got %v", err)
	}

	// Rotating an unrelinearized product is also rejected.
	q := core.MustNewProgram("rot", 8)
	y, _ := q.NewInput("y", core.TypeCipher, 8, 30)
	y2, _ := q.NewBinary(core.OpMultiply, y, y)
	rot, _ := q.NewRotation(core.OpRotateLeft, y2, 1)
	q.AddOutput("out", rot, 30)
	if _, _, err := Validate(q, 60); constraintOf(err) != 3 {
		t.Errorf("expected constraint-3 violation for rotating a degree-2 ciphertext, got %v", err)
	}

	// With RELINEARIZE inserted, validation passes.
	r := buildCompiledX2Y3(t)
	if _, _, err := Validate(r, 60); err != nil {
		t.Errorf("valid program rejected: %v", err)
	}
}

func TestValidateRunsAllPasses(t *testing.T) {
	p := buildCompiledX2Y3(t)
	chains, scales, err := Validate(p, 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(chains) == 0 || len(scales) == 0 {
		t.Error("Validate should return chains and scales")
	}
}

func TestSelectParameters(t *testing.T) {
	p := buildCompiledX2Y3(t)
	chains, scales, err := Validate(p, 60)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := SelectParameters(p, chains, scales, 60)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(plan.SpecialBits, []int{60}) {
		t.Errorf("special prime bits = %v, want one 60-bit prime", plan.SpecialBits)
	}
	// Chain of length 2 (two rescales by 2^60) plus the output requirement
	// (scale 2^30 times desired 2^30 = 2^60 -> one more 60-bit prime).
	if plan.MaxChainLength != 2 {
		t.Errorf("max chain length = %d, want 2", plan.MaxChainLength)
	}
	if len(plan.BitSizes) < 3 {
		t.Errorf("bit sizes %v, want at least 3 primes", plan.BitSizes)
	}
	for _, b := range plan.BitSizes {
		if b < 20 || b > 60 {
			t.Errorf("prime bit size %d out of the valid range", b)
		}
	}
	if plan.LogQ() <= 0 || plan.LogQP() != plan.LogQ()+60 {
		t.Error("LogQ/LogQP inconsistent")
	}
	if plan.NumPrimes() != len(plan.BitSizes)+1 {
		t.Error("NumPrimes should count the special prime")
	}
	if plan.CriticalOutput != "out" {
		t.Errorf("critical output %q, want %q", plan.CriticalOutput, "out")
	}
}

func TestSelectParametersErrors(t *testing.T) {
	p := core.MustNewProgram("empty", 8)
	if _, err := SelectParameters(p, nil, nil, 60); err == nil {
		t.Error("expected error for a program without outputs")
	}
}

func TestFactorizeScale(t *testing.T) {
	cases := []struct {
		logScale float64
		want     []int
	}{
		{0, []int{20}},
		{-5, []int{20}},
		{30, []int{30}},
		{60, []int{60}},
		{61, []int{60, 20}}, // the 1-bit remainder is clamped to a valid prime size
		{90, []int{60, 30}},
		{150, []int{60, 60, 30}},
	}
	for _, c := range cases {
		got := factorizeScale(c.logScale, 60)
		if len(got) != len(c.want) {
			t.Errorf("factorizeScale(%g) = %v, want %v", c.logScale, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("factorizeScale(%g) = %v, want %v", c.logScale, got, c.want)
				break
			}
		}
	}
}

// constraintOf returns the constraint a ConstraintError names, or 0.
func constraintOf(err error) int {
	if ce, ok := err.(*ConstraintError); ok {
		return ce.Constraint
	}
	return 0
}
