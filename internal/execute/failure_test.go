package execute

import (
	"errors"
	"math"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"eva/internal/analysis"
	"eva/internal/ckks"
	"eva/internal/compile"
	"eva/internal/core"
	"eva/internal/rewrite"
)

// These tests inject compiler misconfigurations and runtime faults and check
// that the executor surfaces clean errors — the failure modes EVA's
// validation exists to prevent from ever reaching the FHE library.

// compileSkippingPasses compiles with an incomplete rewrite pipeline, so the
// resulting program violates scheme constraints at run time.
func compileSkippingPasses(t *testing.T, p *core.Program, transform func(*core.Program) error) *compile.Result {
	t.Helper()
	// Bypass compile.Compile (whose validation would reject the program) and
	// lower the under-transformed program itself, as a buggy compiler would.
	prog := p.Clone()
	if err := transform(prog); err != nil {
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
	facts := &analysis.Facts{Order: prog.TopoSort(), Chains: core.NewTermMap[analysis.Chain](prog), Scales: core.NewTermMap[float64](prog)}
	for term, s := range rewrite.ComputeLogScales(prog) {
		facts.Scales.Set(term, s)
	}
	bad := compile.Lower(prog, facts)
	bad.Plan, bad.LogN, bad.Options, bad.SourceStats = good.Plan, good.LogN, good.Options, good.SourceStats
	return bad
}

func TestRunSurfacesMissingRelinearization(t *testing.T) {
	p := buildPolynomialProgram(t, 8)
	// The default pipeline's passes, RELINEARIZE left out.
	res := compileSkippingPasses(t, p, func(q *core.Program) error {
		if err := rewrite.InsertRescaleWaterline(q, 60, 0); err != nil {
			return err
		}
		rewrite.InsertModSwitchEager(q)
		return rewrite.MatchScales(q)
	})
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
	res := compileSkippingPasses(t, p, func(q *core.Program) error {
		if err := rewrite.InsertRescaleWaterline(q, 60, 0); err != nil {
			return err
		}
		if err := rewrite.MatchScales(q); err != nil {
			return err
		}
		rewrite.InsertRelinearize(q)
		return nil
	})
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

// TestRunSurfacesMissingRotationKey: without Galois keys, a hoisted batch
// and a lone rotation both fail the run under every scheduler, and the error
// names a step the program rotates by.
func TestRunSurfacesMissingRotationKey(t *testing.T) {
	p := buildRotationProgram(t, 16)
	opts := compile.DefaultOptions()
	opts.AllowInsecure = true
	res, err := compile.Compile(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Drop the rotation steps so no Galois keys are generated.
	steps := res.RotationSteps
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
	missing := regexp.MustCompile(`missing rotation key for step (-?[0-9]+)`)
	for _, sched := range []Scheduler{SchedulerParallel, SchedulerBulkSynchronous, SchedulerSequential} {
		_, err = Run(ctx, res, enc, RunOptions{Scheduler: sched})
		if err == nil {
			t.Fatalf("scheduler %d: expected a runtime error for a missing rotation key", sched)
		}
		m := missing.FindStringSubmatch(err.Error())
		if m == nil {
			t.Errorf("scheduler %d: the error names no missing step: %v", sched, err)
			continue
		}
		if step, _ := strconv.Atoi(m[1]); !slices.Contains(steps, step) {
			t.Errorf("scheduler %d: the error names step %d, not one of the program's %v", sched, step, steps)
		}
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

// TestRunRejectsInputsBreakingTheContract: input ciphertexts that break the
// program's input contract fail Run with compile.Result.Bind's mismatch
// before a single instruction completes, rather than with a backend error
// partway through the run.
func TestRunRejectsInputsBreakingTheContract(t *testing.T) {
	p := buildPolynomialProgram(t, 8)
	res, err := compile.Compile(p, compile.Options{MaxRescaleLog: 60, AllowInsecure: true})
	if err != nil {
		t.Fatal(err)
	}
	prng := ckks.NewTestPRNG(4)
	ctx, keys, err := NewContext(res, prng)
	if err != nil {
		t.Fatal(err)
	}
	values := randomInputs(p, 4)
	fresh, err := EncryptInputs(ctx, res, keys, values, prng)
	if err != nil {
		t.Fatal(err)
	}
	down := func(ct *ckks.Ciphertext, levels int) *ckks.Ciphertext {
		for range levels {
			if ct, err = ctx.Evaluator.ModSwitch(ct); err != nil {
				t.Fatal(err)
			}
		}
		return ct
	}
	top := ctx.Params.MaxLevel()
	pt, err := ctx.Encoder.Encode(values["x"], math.Exp2(p.InputByName("x").LogScale+10), top)
	if err != nil {
		t.Fatal(err)
	}
	skewed, err := ckks.NewEncryptor(ctx.Params, keys.Secret, prng).Encrypt(pt)
	if err != nil {
		t.Fatal(err)
	}
	x, y := fresh.Cipher["x"], fresh.Cipher["y"]
	for _, tc := range []struct {
		name  string
		x, y  *ckks.Ciphertext
		input string
		field string
	}{
		{"under-levelled", down(x, top), down(y, top), "x", "level"},
		{"mixed-level group", x, down(y, 1), "x", "level"},
		{"skewed scale", skewed, y, "x", "scale"},
	} {
		records := 0
		in := &EncryptedInputs{Cipher: map[string]*ckks.Ciphertext{"x": tc.x, "y": tc.y}, Plain: fresh.Plain}
		_, err := Run(ctx, res, in, RunOptions{OnInstruction: func(*core.Term, InstrRecord) { records++ }})
		var m compile.Mismatch
		if !errors.As(err, &m) || m.Input != tc.input || m.Field != tc.field {
			t.Errorf("%s: err %v, want a mismatch on input %s field %s", tc.name, err, tc.input, tc.field)
		}
		if records != 0 {
			t.Errorf("%s: %d instruction records, want none", tc.name, records)
		}
	}
	if _, err := Run(ctx, res, fresh, RunOptions{}); err != nil {
		t.Fatalf("fresh inputs: %v", err)
	}
}
