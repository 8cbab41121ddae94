package execute

import (
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
	// build the pieces by hand, mirroring what a buggy compiler would do.
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
	// Swap in the under-transformed program while keeping the (valid)
	// parameter plan, so execution reaches the backend and fails there.
	return &compile.Result{
		Program:       prog,
		Plan:          good.Plan,
		RotationSteps: good.RotationSteps,
		LogN:          good.LogN,
		Scales:        rewrite.ComputeLogScales(prog),
		Chains:        good.Chains,
		Types:         good.Types,
		Options:       good.Options,
		SourceStats:   good.SourceStats,
		CompiledStats: good.CompiledStats,
	}
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
	groups := groupByKernel(p.TopoSort())
	if len(groups) < 2 {
		t.Fatalf("expected at least 2 kernel groups, got %d", len(groups))
	}
	// Flattening the groups must preserve the topological order.
	var flat []*core.Term
	for _, g := range groups {
		flat = append(flat, g...)
	}
	pos := map[*core.Term]int{}
	for i, term := range flat {
		pos[term] = i
	}
	for _, term := range flat {
		for _, parm := range term.Parms() {
			if pos[parm] >= pos[term] {
				t.Fatal("kernel grouping broke the topological order")
			}
		}
	}
}
