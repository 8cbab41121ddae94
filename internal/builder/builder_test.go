package builder

import (
	"math"
	"testing"

	"eva/internal/core"
	"eva/internal/execute"
)

// runPlain builds the program and evaluates it with the reference executor.
func runPlain(t *testing.T, b *Builder, in execute.Inputs) map[string][]float64 {
	t.Helper()
	p, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	out, err := execute.RunReference(p, in)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestBuilderArithmetic(t *testing.T) {
	b := New("arith", 8)
	x := b.Input("x", 30)
	y := b.Input("y", 30)
	b.Output("sum", x.Add(y), 30)
	b.Output("diff", x.Sub(y), 30)
	b.Output("prod", x.Mul(y), 30)
	b.Output("neg", x.Neg(), 30)
	b.Output("sq", x.Square(), 30)
	b.Output("scaled", x.MulScalar(3, 20).AddScalar(1, 20).SubScalar(0.5, 20), 30)

	in := execute.Inputs{"x": {1, 2, 3, 4, 5, 6, 7, 8}, "y": {8, 7, 6, 5, 4, 3, 2, 1}}
	out := runPlain(t, b, in)
	checks := map[string]float64{"sum": 9, "diff": -7, "prod": 8, "neg": -1, "sq": 1, "scaled": 3.5}
	for name, want := range checks {
		if math.Abs(out[name][0]-want) > 1e-12 {
			t.Errorf("%s[0] = %g, want %g", name, out[name][0], want)
		}
	}
}

func TestBuilderRotationsAndReductions(t *testing.T) {
	b := New("rot", 8)
	x := b.Input("x", 30)
	b.Output("left", x.RotateLeft(2), 30)
	b.Output("right", x.RotateRight(1), 30)
	b.Output("sum4", x.SumSlots(4), 30)
	b.Output("dot", x.DotPlain([]float64{1, 0, 2, 0, 0, 0, 0, 0}, 20, 8), 30)

	in := execute.Inputs{"x": {1, 2, 3, 4, 5, 6, 7, 8}}
	out := runPlain(t, b, in)
	if out["left"][0] != 3 {
		t.Errorf("left[0] = %g, want 3", out["left"][0])
	}
	if out["right"][0] != 8 {
		t.Errorf("right[0] = %g, want 8", out["right"][0])
	}
	if out["sum4"][0] != 10 {
		t.Errorf("sum4[0] = %g, want 10", out["sum4"][0])
	}
	if out["dot"][0] != 7 {
		t.Errorf("dot[0] = %g, want 7", out["dot"][0])
	}
}

func TestBuilderPowAndPolynomial(t *testing.T) {
	b := New("poly", 8)
	x := b.Input("x", 30)
	b.Output("x5", x.Pow(5), 30)
	b.Output("x1", x.Pow(1), 30)
	b.Output("poly", x.Polynomial([]float64{1, -2, 0, 3}, 20), 30) // 1 - 2x + 3x^3
	b.Output("constpoly", x.Polynomial([]float64{4}, 20), 30)
	b.Output("zeropoly", x.Polynomial([]float64{0, 0}, 20), 30)

	in := execute.Inputs{"x": {2, 2, 2, 2, 2, 2, 2, 2}}
	out := runPlain(t, b, in)
	if out["x5"][0] != 32 {
		t.Errorf("x5 = %g, want 32", out["x5"][0])
	}
	if out["x1"][0] != 2 {
		t.Errorf("x1 = %g, want 2", out["x1"][0])
	}
	if want := 1.0 - 4 + 24; out["poly"][0] != want {
		t.Errorf("poly = %g, want %g", out["poly"][0], want)
	}
	if out["constpoly"][0] != 4 {
		t.Errorf("constpoly = %g, want 4", out["constpoly"][0])
	}
	if out["zeropoly"][0] != 0 {
		t.Errorf("zeropoly = %g, want 0", out["zeropoly"][0])
	}
}

func TestBuilderPlainInputsAndVectors(t *testing.T) {
	b := New("plain", 8)
	x := b.Input("x", 30)
	m := b.PlainInput("mask", 20)
	b.Output("masked", x.Mul(m), 30)
	b.Output("vec", x.MulVector([]float64{1, 2, 1, 2, 1, 2, 1, 2}, 20), 30)
	in := execute.Inputs{"x": {1, 1, 1, 1, 1, 1, 1, 1}, "mask": {0, 1, 0, 1, 0, 1, 0, 1}}
	out := runPlain(t, b, in)
	if out["masked"][0] != 0 || out["masked"][1] != 1 {
		t.Errorf("masked = %v", out["masked"][:2])
	}
	if out["vec"][1] != 2 {
		t.Errorf("vec[1] = %g, want 2", out["vec"][1])
	}
}

func TestBuilderKernelLabels(t *testing.T) {
	b := New("kernels", 8)
	x := b.Input("x", 30)
	b.SetKernel("conv1")
	y := x.Square()
	b.SetKernel("act1")
	z := y.AddScalar(1, 30)
	b.Output("out", z, 30)
	p, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, term := range p.Terms() {
		if term.Kernel != "" {
			found[term.Kernel] = true
		}
	}
	if !found["conv1"] || !found["act1"] {
		t.Errorf("kernel labels missing: %v", found)
	}
}

func TestBuilderInputWidth(t *testing.T) {
	b := New("width", 16)
	x := b.InputWithWidth("x", 4, 30)
	b.Output("out", x.Add(x), 30)
	p, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	if p.InputByName("x").VecWidth != 4 {
		t.Errorf("input width = %d, want 4", p.InputByName("x").VecWidth)
	}
	out, err := execute.RunReference(p, execute.Inputs{"x": {1, 2, 3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	// Replication: slot 5 repeats slot 1.
	if out["out"][5] != 4 {
		t.Errorf("out[5] = %g, want 4", out["out"][5])
	}
}

func TestBuilderErrorHandling(t *testing.T) {
	if _, err := New("bad", 3).Program(); err == nil {
		t.Error("expected error for bad vector size")
	}

	// Program with no outputs fails validation.
	b := New("noout", 8)
	b.Input("x", 30)
	if _, err := b.Program(); err == nil {
		t.Error("expected error for missing outputs")
	}

	// Sticky errors: once a bad op happens, Program reports it and later
	// operations do not panic.
	b2 := New("sticky", 8)
	x := b2.Input("x", 30)
	bad := x.SumSlots(3) // not a power of two
	_ = bad.Add(x).Mul(x).Neg().RotateLeft(1).RotateRight(1).Square()
	b2.Output("out", x, 30)
	if _, err := b2.Program(); err == nil {
		t.Error("expected sticky error to surface")
	}
	if b2.Err() == nil {
		t.Error("Err() should report the sticky error")
	}

	// Pow with invalid exponent.
	b3 := New("pow", 8)
	y := b3.Input("y", 30)
	_ = y.Pow(0)
	if b3.Err() == nil {
		t.Error("expected error for Pow(0)")
	}

	// Mixing builders.
	b4, b5 := New("a", 8), New("b", 8)
	xa := b4.Input("x", 30)
	xb := b5.Input("x", 30)
	_ = xa.Add(xb)
	if b4.Err() == nil {
		t.Error("expected error when mixing expressions from different builders")
	}

	// Output of an invalid expression.
	b6 := New("badout", 8)
	b6.Output("o", Expr{}, 30)
	if b6.Err() == nil {
		t.Error("expected error for invalid output expression")
	}

	// MustProgram panics on error.
	defer func() {
		if recover() == nil {
			t.Error("MustProgram should panic on invalid program")
		}
	}()
	New("panic", 8).MustProgram()
}

func TestBuilderDuplicateNames(t *testing.T) {
	b := New("dup", 8)
	x := b.Input("x", 30)
	_ = b.Input("x", 30)
	b.Output("out", x, 30)
	if _, err := b.Program(); err == nil {
		t.Error("expected error for duplicate input name")
	}

	b2 := New("dupout", 8)
	y := b2.Input("y", 30)
	b2.Output("o", y, 30)
	b2.Output("o", y, 30)
	if _, err := b2.Program(); err == nil {
		t.Error("expected error for duplicate output name")
	}
}

func TestBuilderProducesValidInputProgram(t *testing.T) {
	b := New("valid", 8)
	x := b.Input("x", 30)
	b.Output("out", x.Square().Add(x), 30)
	p := b.MustProgram()
	if _, err := p.ValidateStructure(true); err != nil {
		t.Fatal(err)
	}
	for _, term := range p.Terms() {
		if term.Op.IsCompilerOp() {
			t.Errorf("builder emitted compiler-only op %s", term.Op)
		}
	}
	if p.NumTerms() == 0 || p.Terms()[0].Op != core.OpInput {
		t.Error("unexpected program shape")
	}
}
