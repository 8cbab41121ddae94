package execute

import (
	"math"
	"math/rand"
	"testing"

	"eva/internal/ckks"
	"eva/internal/compile"
	"eva/internal/core"
)

// buildPolynomialProgram builds x²y³ + x - y over vectors of the given size.
func buildPolynomialProgram(t testing.TB, vecSize int) *core.Program {
	t.Helper()
	p := core.MustNewProgram("poly", vecSize)
	x, _ := p.NewInput("x", core.TypeCipher, vecSize, 40)
	y, _ := p.NewInput("y", core.TypeCipher, vecSize, 40)
	x2, _ := p.NewBinary(core.OpMultiply, x, x)
	y2, _ := p.NewBinary(core.OpMultiply, y, y)
	y3, _ := p.NewBinary(core.OpMultiply, y2, y)
	xy, _ := p.NewBinary(core.OpMultiply, x2, y3)
	s1, _ := p.NewBinary(core.OpAdd, xy, x)
	s2, _ := p.NewBinary(core.OpSub, s1, y)
	if err := p.AddOutput("out", s2, 40); err != nil {
		t.Fatal(err)
	}
	return p
}

// buildRotationProgram computes a running sum of 4 neighbours scaled by a
// plaintext mask, exercising rotations, plaintext vectors and constants.
func buildRotationProgram(t testing.TB, vecSize int) *core.Program {
	t.Helper()
	p := core.MustNewProgram("rotsum", vecSize)
	x, _ := p.NewInput("x", core.TypeCipher, vecSize, 40)
	mask, _ := p.NewInput("mask", core.TypeVector, vecSize, 20)
	half, _ := p.NewScalarConstant(0.5, 20)
	var acc *core.Term
	for k := 0; k < 4; k++ {
		rot, _ := p.NewRotation(core.OpRotateLeft, x, k)
		if acc == nil {
			acc = rot
			continue
		}
		sum, _ := p.NewBinary(core.OpAdd, acc, rot)
		acc = sum
	}
	masked, _ := p.NewBinary(core.OpMultiply, acc, mask)
	scaled, _ := p.NewBinary(core.OpMultiply, masked, half)
	neg, _ := p.NewUnary(core.OpNegate, scaled)
	rr, _ := p.NewRotation(core.OpRotateRight, scaled, 2)
	if err := p.AddOutput("out", scaled, 40); err != nil {
		t.Fatal(err)
	}
	if err := p.AddOutput("neg", neg, 40); err != nil {
		t.Fatal(err)
	}
	if err := p.AddOutput("shifted", rr, 40); err != nil {
		t.Fatal(err)
	}
	return p
}

func randomInputs(p *core.Program, seed int64) Inputs {
	rng := rand.New(rand.NewSource(seed))
	in := Inputs{}
	for _, t := range p.Inputs() {
		v := make([]float64, t.VecWidth)
		for i := range v {
			v[i] = rng.Float64()*2 - 1
		}
		in[t.Name] = v
	}
	return in
}

func compileForTest(t testing.TB, p *core.Program, opts compile.Options) *compile.Result {
	t.Helper()
	opts.AllowInsecure = true
	res, err := compile.Compile(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// runEncrypted compiles, generates keys, encrypts, executes and decrypts.
func runEncrypted(t testing.TB, res *compile.Result, in Inputs, ropts RunOptions) (map[string][]float64, *Outputs) {
	t.Helper()
	prng := ckks.NewTestPRNG(7)
	ctx, keys, err := NewContext(res, prng)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := EncryptInputs(ctx, res, keys, in, prng)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(ctx, res, enc, ropts)
	if err != nil {
		t.Fatal(err)
	}
	dec, _ := DecryptOutputs(ctx, res, keys, out)
	return dec, out
}

func requireMatch(t testing.TB, got, want map[string][]float64, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("output count %d, want %d", len(got), len(want))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Fatalf("missing output %q", name)
		}
		for i := range w {
			if math.Abs(g[i]-w[i]) > tol {
				t.Fatalf("output %q slot %d: got %g want %g (err %g)", name, i, g[i], w[i], math.Abs(g[i]-w[i]))
			}
		}
	}
}

func TestReferenceExecutor(t *testing.T) {
	p := buildRotationProgram(t, 8)
	in := Inputs{
		"x":    []float64{1, 2, 3, 4, 5, 6, 7, 8},
		"mask": []float64{1, 0, 1, 0, 1, 0, 1, 0},
	}
	out, err := RunReference(p, in)
	if err != nil {
		t.Fatal(err)
	}
	// Slot 0 of the rotation sum: (1+2+3+4)*1*0.5 = 5.
	if math.Abs(out["out"][0]-5) > 1e-12 {
		t.Errorf("out[0] = %g, want 5", out["out"][0])
	}
	if math.Abs(out["neg"][0]+5) > 1e-12 {
		t.Errorf("neg[0] = %g, want -5", out["neg"][0])
	}
	// shifted = rotate right by 2 of out: shifted[2] == out[0].
	if math.Abs(out["shifted"][2]-out["out"][0]) > 1e-12 {
		t.Errorf("shifted[2] = %g, want %g", out["shifted"][2], out["out"][0])
	}
	// Missing and malformed inputs are rejected.
	if _, err := RunReference(p, Inputs{"x": in["x"]}); err == nil {
		t.Error("expected error for missing input")
	}
	if _, err := RunReference(p, Inputs{"x": make([]float64, 16), "mask": in["mask"]}); err == nil {
		t.Error("expected error for oversized input")
	}
}

func TestEncryptedExecutionMatchesReferencePolynomial(t *testing.T) {
	p := buildPolynomialProgram(t, 8)
	in := randomInputs(p, 1)
	want, err := RunReference(p, in)
	if err != nil {
		t.Fatal(err)
	}
	res := compileForTest(t, p, compile.DefaultOptions())
	got, outs := runEncrypted(t, res, in, RunOptions{Scheduler: SchedulerParallel})
	requireMatch(t, got, want, 1e-3)
	if outs.Stats.Instructions == 0 || outs.Stats.WallTime <= 0 {
		t.Error("missing run statistics")
	}
	if outs.Stats.ReusedValues == 0 {
		t.Error("expected the executor to reuse memory of retired values")
	}
}

func TestEncryptedExecutionMatchesReferenceRotations(t *testing.T) {
	p := buildRotationProgram(t, 16)
	in := randomInputs(p, 2)
	want, err := RunReference(p, in)
	if err != nil {
		t.Fatal(err)
	}
	res := compileForTest(t, p, compile.DefaultOptions())
	if len(res.RotationSteps) == 0 {
		t.Fatal("expected rotation steps to be selected")
	}
	got, _ := runEncrypted(t, res, in, RunOptions{Scheduler: SchedulerParallel})
	requireMatch(t, got, want, 1e-3)
}

func TestSchedulersProduceSameResults(t *testing.T) {
	p := buildPolynomialProgram(t, 8)
	in := randomInputs(p, 3)
	want, err := RunReference(p, in)
	if err != nil {
		t.Fatal(err)
	}
	res := compileForTest(t, p, compile.DefaultOptions())
	for _, sched := range []Scheduler{SchedulerParallel, SchedulerBulkSynchronous, SchedulerSequential} {
		got, _ := runEncrypted(t, res, in, RunOptions{Scheduler: sched, Workers: 4})
		requireMatch(t, got, want, 1e-3)
	}
}

func TestPlainOnlyOutputs(t *testing.T) {
	// A program whose output never touches a Cipher input stays unencrypted.
	p := core.MustNewProgram("plain", 8)
	v, _ := p.NewInput("v", core.TypeVector, 8, 30)
	c, _ := p.NewScalarConstant(3, 30)
	vc, _ := p.NewBinary(core.OpMultiply, v, c)
	x, _ := p.NewInput("x", core.TypeCipher, 8, 30)
	xc, _ := p.NewBinary(core.OpMultiply, x, c)
	p.AddOutput("plain_out", vc, 30)
	p.AddOutput("cipher_out", xc, 30)

	in := Inputs{"v": {1, 2, 3, 4, 5, 6, 7, 8}, "x": {1, 1, 1, 1, 1, 1, 1, 1}}
	want, err := RunReference(p, in)
	if err != nil {
		t.Fatal(err)
	}
	res := compileForTest(t, p, compile.DefaultOptions())
	got, outs := runEncrypted(t, res, in, RunOptions{})
	requireMatch(t, got, want, 1e-3)
	if len(outs.Plain) != 1 || len(outs.Cipher) != 1 {
		t.Errorf("expected one plain and one cipher output, got %d/%d", len(outs.Plain), len(outs.Cipher))
	}
}

func TestEncryptInputsErrors(t *testing.T) {
	p := buildPolynomialProgram(t, 8)
	res := compileForTest(t, p, compile.DefaultOptions())
	prng := ckks.NewTestPRNG(9)
	ctx, keys, err := NewContext(res, prng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EncryptInputs(ctx, res, keys, Inputs{"x": {1}}, prng); err == nil {
		t.Error("expected error for missing input")
	}
	if _, err := EncryptInputs(ctx, res, keys, Inputs{"x": make([]float64, 99), "y": {1}}, prng); err == nil {
		t.Error("expected error for oversized input")
	}
}

func TestRunMissingInputValue(t *testing.T) {
	p := buildPolynomialProgram(t, 8)
	res := compileForTest(t, p, compile.DefaultOptions())
	prng := ckks.NewTestPRNG(10)
	ctx, _, err := NewContext(res, prng)
	if err != nil {
		t.Fatal(err)
	}
	empty := &EncryptedInputs{Cipher: map[string]*ckks.Ciphertext{}, Plain: map[string][]float64{}}
	if _, err := Run(ctx, res, empty, RunOptions{}); err == nil {
		t.Error("expected error when input values are missing")
	}
}

func TestCompileSummaryAndPlan(t *testing.T) {
	p := buildPolynomialProgram(t, 8)
	res := compileForTest(t, p, compile.DefaultOptions())
	if res.Summary() == "" {
		t.Error("empty compile summary")
	}
	if res.Plan.NumPrimes() < 2 {
		t.Errorf("suspicious prime count %d", res.Plan.NumPrimes())
	}
	if res.Plan.LogQP() <= res.Plan.LogQ() {
		t.Error("LogQP should include the special prime")
	}
	if got := res.InputScales(); got["x"] != 40 || got["y"] != 40 {
		t.Errorf("input scales = %v", got)
	}
	lit := res.ParametersLiteral()
	if len(lit.LogQi) != len(res.Plan.BitSizes) {
		t.Error("parameter literal chain length mismatch")
	}
	// Consumption order is reversed into the backend's chain order.
	if lit.LogQi[len(lit.LogQi)-1] != res.Plan.BitSizes[0] {
		t.Error("parameter literal ordering wrong")
	}
}
