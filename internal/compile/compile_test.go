package compile

import (
	"math"
	"slices"
	"testing"

	"eva/internal/core"
	"eva/internal/rewrite"
)

func buildExample(t *testing.T, vecSize int, xScale, yScale float64) *core.Program {
	t.Helper()
	p := core.MustNewProgram("example", vecSize)
	x, _ := p.NewInput("x", core.TypeCipher, vecSize, xScale)
	y, _ := p.NewInput("y", core.TypeCipher, vecSize, yScale)
	x2, _ := p.NewBinary(core.OpMultiply, x, x)
	y3a, _ := p.NewBinary(core.OpMultiply, y, y)
	y3, _ := p.NewBinary(core.OpMultiply, y3a, y)
	out, _ := p.NewBinary(core.OpMultiply, x2, y3)
	if err := p.AddOutput("out", out, 30); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCompileProducesValidatedProgram(t *testing.T) {
	p := buildExample(t, 8, 60, 30)
	res, err := Compile(p, Options{MaxRescaleLog: 60, AllowInsecure: true})
	if err != nil {
		t.Fatal(err)
	}
	// The input program is not mutated.
	for _, term := range p.Terms() {
		if term.Op.IsCompilerOp() {
			t.Fatal("Compile mutated the input program")
		}
	}
	// The compiled program contains the FHE-specific instructions.
	if res.CompiledStats.Instructions["RELINEARIZE"] == 0 {
		t.Error("compiled program has no RELINEARIZE instructions")
	}
	if res.CompiledStats.Instructions["RESCALE"] == 0 {
		t.Error("compiled program has no RESCALE instructions")
	}
	if res.Plan == nil || len(res.Plan.BitSizes) == 0 {
		t.Fatal("missing parameter plan")
	}
	checkLowering(t, res)
	if res.Summary() == "" {
		t.Error("empty summary")
	}
}

// TestSelectRotationSteps: the compiler selects one Galois key per distinct
// left-rotation step, a right rotation by k counting as a left one by -k.
func TestSelectRotationSteps(t *testing.T) {
	p := core.MustNewProgram("rot", 8)
	x, _ := p.NewInput("x", core.TypeCipher, 8, 30)
	r1, _ := p.NewRotation(core.OpRotateLeft, x, 3)
	r2, _ := p.NewRotation(core.OpRotateRight, x, 1)
	sum, _ := p.NewBinary(core.OpAdd, r1, r2)
	p.AddOutput("out", sum, 30)
	res, err := Compile(p, Options{MaxRescaleLog: 60, AllowInsecure: true})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res.RotationSteps, []int{-1, 3}) {
		t.Errorf("rotation steps = %v, want [-1 3]", res.RotationSteps)
	}
	checkLowering(t, res)
}

func TestCompileRejectsBadInput(t *testing.T) {
	if _, err := Compile(nil, DefaultOptions()); err == nil {
		t.Error("expected error for nil program")
	}
	// Program without outputs.
	p := core.MustNewProgram("noout", 8)
	p.NewInput("x", core.TypeCipher, 8, 30)
	if _, err := Compile(p, DefaultOptions()); err == nil {
		t.Error("expected error for a program without outputs")
	}
	// Program already containing compiler-only instructions.
	q := core.MustNewProgram("hasrelin", 8)
	x, _ := q.NewInput("x", core.TypeCipher, 8, 30)
	r, _ := q.NewUnary(core.OpRelinearize, x)
	q.AddOutput("out", r, 30)
	if _, err := Compile(q, DefaultOptions()); err == nil {
		t.Error("expected error for compiler-only instructions in the input")
	}
}

func TestCompileSecureParameterSelection(t *testing.T) {
	// Depth-3 program with 60-bit scales needs roughly 4-5 chain primes; the
	// secure ring degree must respect the HE-standard bound.
	p := buildExample(t, 2048, 60, 30)
	res, err := Compile(p, Options{MaxRescaleLog: 60})
	if err != nil {
		t.Fatal(err)
	}
	checkLowering(t, res)
	if res.LogN < 13 {
		t.Errorf("secure logN = %d, expected at least 13 for a %d-bit modulus", res.LogN, res.Plan.LogQP())
	}
	// Slots must cover the vector size even for insecure compilations.
	ins, err := Compile(p, Options{MaxRescaleLog: 60, AllowInsecure: true})
	if err != nil {
		t.Fatal(err)
	}
	if 1<<(ins.LogN-1) < p.VecSize {
		t.Errorf("insecure logN = %d gives fewer slots than the vector size %d", ins.LogN, p.VecSize)
	}
	if ins.LogN > res.LogN {
		t.Errorf("insecure ring (%d) should not exceed the secure ring (%d)", ins.LogN, res.LogN)
	}
}

func TestCompileMinLogNOption(t *testing.T) {
	p := buildExample(t, 8, 40, 40)
	res, err := Compile(p, Options{MaxRescaleLog: 60, AllowInsecure: true, MinLogN: 12})
	if err != nil {
		t.Fatal(err)
	}
	if res.LogN != 12 {
		t.Errorf("logN = %d, want the requested floor 12", res.LogN)
	}
}

func TestParametersLiteralOrdering(t *testing.T) {
	p := buildExample(t, 8, 60, 30)
	res, err := Compile(p, Options{MaxRescaleLog: 60, AllowInsecure: true})
	if err != nil {
		t.Fatal(err)
	}
	lit := res.ParametersLiteral()
	if lit.LogN != res.LogN || !slices.Equal(lit.LogPi, res.Plan.SpecialBits) {
		t.Error("literal ring degree or special prime mismatch")
	}
	if len(lit.LogQi) != len(res.Plan.BitSizes) {
		t.Fatal("literal chain length mismatch")
	}
	// The first-consumed prime (BitSizes[0]) must be the backend chain's last
	// element, which is the prime RESCALE drops first.
	if lit.LogQi[len(lit.LogQi)-1] != res.Plan.BitSizes[0] {
		t.Error("chain ordering not reversed for the backend")
	}
	if lit.Scale <= 0 || math.IsInf(lit.Scale, 0) {
		t.Error("default scale not set")
	}
	if !lit.AllowInsecure {
		t.Error("AllowInsecure flag not propagated")
	}
}

func TestCompileStrategyOptions(t *testing.T) {
	// The fixed-max strategy assumes the CHET-style uniform 60-bit working
	// scale (smaller scales would be destroyed by the unconditional rescale,
	// and the validator rejects that — see TestCompileValidationCatchesBadStrategy).
	p := buildExample(t, 8, 60, 60)
	res, err := Compile(p, Options{
		MaxRescaleLog: 60,
		AllowInsecure: true,
		Rescale:       rewrite.RescaleFixedMax,
		ModSwitch:     rewrite.ModSwitchLazy,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkLowering(t, res)
	// Fixed-max rescaling rescales after every ciphertext multiply: 4 rescales.
	if got := res.CompiledStats.Instructions["RESCALE"]; got != 4 {
		t.Errorf("RESCALE count = %d, want 4 under the fixed-max strategy", got)
	}
	def, err := Compile(p, Options{MaxRescaleLog: 60, AllowInsecure: true})
	if err != nil {
		t.Fatal(err)
	}
	if def.Plan.NumPrimes() > res.Plan.NumPrimes() {
		t.Errorf("waterline strategy selected more primes (%d) than fixed-max (%d)",
			def.Plan.NumPrimes(), res.Plan.NumPrimes())
	}
}

func TestCompileValidationCatchesBadStrategy(t *testing.T) {
	// Unconditional 60-bit rescaling of a 30-bit-scale operand destroys the
	// message; the validation step must reject it at compile time (this is
	// the class of error SEAL would only surface as garbage output).
	p := buildExample(t, 8, 60, 30)
	_, err := Compile(p, Options{
		MaxRescaleLog: 60,
		AllowInsecure: true,
		Rescale:       rewrite.RescaleFixedMax,
		ModSwitch:     rewrite.ModSwitchLazy,
	})
	if err == nil {
		t.Fatal("expected validation to reject the vanishing-scale program")
	}
}

func TestCompileInputScales(t *testing.T) {
	p := buildExample(t, 8, 45, 25)
	res, err := Compile(p, Options{MaxRescaleLog: 60, AllowInsecure: true})
	if err != nil {
		t.Fatal(err)
	}
	scales := res.InputScales()
	if scales["x"] != 45 || scales["y"] != 25 {
		t.Errorf("input scales = %v", scales)
	}
}

func TestCompileHugeModulusFailsSecurely(t *testing.T) {
	// A very deep program with large scales cannot fit any supported secure
	// ring; compilation must fail rather than emit insecure parameters.
	p := core.MustNewProgram("deep", 8)
	x, _ := p.NewInput("x", core.TypeCipher, 8, 60)
	cur := x
	for i := 0; i < 70; i++ {
		cur2, _ := p.NewBinary(core.OpMultiply, cur, cur)
		cur = cur2
	}
	p.AddOutput("out", cur, 30)
	if _, err := Compile(p, Options{MaxRescaleLog: 60}); err == nil {
		t.Error("expected failure for a modulus exceeding every security bound")
	}
	// The same program compiles when insecure parameters are explicitly allowed.
	if _, err := Compile(p, Options{MaxRescaleLog: 60, AllowInsecure: true}); err != nil {
		t.Errorf("insecure compilation should succeed: %v", err)
	}
}
