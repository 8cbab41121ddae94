package execute

import (
	"slices"
	"strings"
	"testing"

	"eva/internal/ckks"
	"eva/internal/compile"
	"eva/internal/core"
	"eva/internal/rewrite"
)

// These tests inject compiler misconfigurations and runtime faults and check
// that the executor surfaces clean errors — the failure modes EVA's
// validation exists to prevent from ever reaching the FHE library.

// compileSkippingPasses compiles while disabling parts of the pipeline so the
// resulting program violates scheme constraints at run time.
func compileSkippingPasses(t *testing.T, p *core.Program, tweak func(*rewrite.Options)) *compile.Result {
	t.Helper()
	// Bypass compile.Compile (whose validation would reject the program) and
	// lower the under-transformed program itself, as a buggy compiler would.
	prog := p.Clone()
	opts := rewrite.DefaultOptions()
	tweak(&opts)
	if err := rewrite.Transform(prog, opts); err != nil {
		t.Fatal(err)
	}
	full := compile.DefaultOptions()
	full.AllowInsecure = true
	good, err := compile.Compile(p, full)
	if err != nil {
		t.Fatal(err)
	}
	// Keep the (valid) parameter plan, so execution reaches the backend and
	// fails there.
	bad := compile.Lower(prog, nil, rewrite.ComputeLogScales(prog))
	bad.Plan, bad.LogN, bad.Options, bad.SourceStats = good.Plan, good.LogN, good.Options, good.SourceStats
	return bad
}

func TestRunSurfacesMissingRelinearization(t *testing.T) {
	p := buildPolynomialProgram(t, 8)
	res := compileSkippingPasses(t, p, func(o *rewrite.Options) { o.SkipRelinearize = true })
	prng := ckks.NewTestPRNG(1)
	ctx, keys, err := NewContext(res, prng)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := EncryptInputs(ctx, res, keys, randomInputs(p, 1), prng)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(ctx, res, enc, RunOptions{})
	if err == nil {
		t.Fatal("expected a runtime error for multiplying unrelinearized ciphertexts")
	}
	if !strings.Contains(err.Error(), "degree") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestRunSurfacesMissingModSwitch(t *testing.T) {
	p := buildPolynomialProgram(t, 8)
	res := compileSkippingPasses(t, p, func(o *rewrite.Options) { o.ModSwitch = rewrite.ModSwitchNone })
	prng := ckks.NewTestPRNG(2)
	ctx, keys, err := NewContext(res, prng)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := EncryptInputs(ctx, res, keys, randomInputs(p, 2), prng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(ctx, res, enc, RunOptions{}); err == nil {
		t.Fatal("expected a runtime error for operating on mismatched levels")
	}
}

func TestRunSurfacesMissingRotationKey(t *testing.T) {
	p := buildRotationProgram(t, 16)
	opts := compile.DefaultOptions()
	opts.AllowInsecure = true
	res, err := compile.Compile(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Drop the rotation steps so no Galois keys are generated.
	res.RotationSteps = nil
	prng := ckks.NewTestPRNG(3)
	ctx, keys, err := NewContext(res, prng)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := EncryptInputs(ctx, res, keys, randomInputs(p, 3), prng)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(ctx, res, enc, RunOptions{})
	if err == nil {
		t.Fatal("expected a runtime error for a missing rotation key")
	}
	if !strings.Contains(err.Error(), "rotation") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestValidationPreventsTheInjectedFailures(t *testing.T) {
	// The same misconfigurations are caught at compile time when the full
	// pipeline is used: Compile refuses to emit the invalid programs that the
	// tests above had to construct by hand.
	p := buildPolynomialProgram(t, 8)
	good, err := compile.Compile(p, compile.Options{MaxRescaleLog: 60, AllowInsecure: true})
	if err != nil {
		t.Fatalf("valid pipeline rejected: %v", err)
	}
	if good.CompiledStats.Instructions["RELINEARIZE"] == 0 {
		t.Error("expected relinearization instructions in the compiled program")
	}
}

func TestGroupByKernelPreservesOrder(t *testing.T) {
	p := core.MustNewProgram("kernels", 8)
	x, _ := p.NewInput("x", core.TypeCipher, 8, 30)
	a, _ := p.NewUnary(core.OpNegate, x)
	a.Kernel = "k1"
	b, _ := p.NewUnary(core.OpNegate, a)
	b.Kernel = "k1"
	c, _ := p.NewBinary(core.OpAdd, b, x)
	c.Kernel = "k2"
	p.AddOutput("out", c, 30)
	res, err := compile.Compile(p, compile.Options{MaxRescaleLog: 60, AllowInsecure: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Kernels) < 2 {
		t.Fatalf("expected at least 2 kernel groups, got %d", len(res.Kernels))
	}
	// Flattened, the groups are exactly the units, in topological order.
	var flat []int32
	for _, g := range res.Kernels {
		flat = append(flat, g...)
	}
	if !slices.Equal(flat, res.Units) {
		t.Fatalf("kernel groups %v do not flatten to the units %v", res.Kernels, res.Units)
	}
	for i, id := range flat {
		for _, q := range res.Instrs[id].Parms {
			if pos := slices.Index(flat, q); pos >= i {
				t.Fatal("kernel grouping broke the topological order")
			}
		}
	}
}
