package rewrite

import (
	"testing"

	"eva/internal/core"
)

// termLevels is each live term's level: the number of RESCALE and
// MOD_SWITCH instructions on a path from a root to the term (counting the
// term itself), maximized over paths.
func termLevels(p *core.Program) map[*core.Term]int {
	levels := make(map[*core.Term]int, p.NumTerms())
	for _, t := range p.TopoSort() {
		l := 0
		for _, parm := range t.Parms() {
			l = max(l, levels[parm])
		}
		if t.Op.IsModulusChanging() {
			l++
		}
		levels[t] = l
	}
	return levels
}

// reverseLevels is each live term's rlevel: the number of RESCALE and
// MOD_SWITCH instructions on a path from the term down to an output
// (counting the term itself), maximized over paths. Program outputs count as
// uses at rlevel zero.
func reverseLevels(p *core.Program) map[*core.Term]int {
	rlevels := make(map[*core.Term]int, p.NumTerms())
	order := p.TopoSort()
	for i := len(order) - 1; i >= 0; i-- {
		r := 0
		for _, u := range order[i].Uses() {
			r = max(r, rlevels[u])
		}
		if order[i].Op.IsModulusChanging() {
			r++
		}
		rlevels[order[i]] = r
	}
	return rlevels
}

// buildX2Y3 reproduces the input graph of Figure 2(a): x²y³ with
// x.scale = 2^60 and y.scale = 2^30.
func buildX2Y3(t *testing.T) *core.Program {
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
	return p
}

// buildX2PlusX reproduces Figure 3(a): x² + x with x.scale = 2^30.
func buildX2PlusX(t *testing.T) *core.Program {
	t.Helper()
	p := core.MustNewProgram("x2+x", 8)
	x, _ := p.NewInput("x", core.TypeCipher, 8, 30)
	x2, _ := p.NewBinary(core.OpMultiply, x, x)
	sum, _ := p.NewBinary(core.OpAdd, x2, x)
	if err := p.AddOutput("out", sum, 30); err != nil {
		t.Fatal(err)
	}
	return p
}

// buildX2PlusXPlusX reproduces Figure 5: x² + x + x with x.scale = 2^60.
func buildX2PlusXPlusX(t *testing.T) *core.Program {
	t.Helper()
	p := core.MustNewProgram("x2+x+x", 8)
	x, _ := p.NewInput("x", core.TypeCipher, 8, 60)
	x2, _ := p.NewBinary(core.OpMultiply, x, x)
	a1, _ := p.NewBinary(core.OpAdd, x2, x)
	a2, _ := p.NewBinary(core.OpAdd, a1, x)
	if err := p.AddOutput("out", a2, 60); err != nil {
		t.Fatal(err)
	}
	return p
}

func countOps(p *core.Program) map[core.OpCode]int {
	counts := map[core.OpCode]int{}
	for _, t := range p.TopoSort() {
		counts[t.Op]++
	}
	return counts
}

// TestFigure2WaterlineRescale checks that WATERLINE-RESCALE with the paper's
// example waterline (2^30) reproduces Figure 2(d): rescales (by the maximum
// value 2^60) after x², y³ and the final multiply, and no rescale after y².
func TestFigure2WaterlineRescale(t *testing.T) {
	p := buildX2Y3(t)
	if err := InsertRescaleWaterline(p, 60, 30); err != nil {
		t.Fatal(err)
	}
	counts := countOps(p)
	if counts[core.OpRescale] != 3 {
		t.Fatalf("rescale count = %d, want 3 (after x², y³ and the output multiply)", counts[core.OpRescale])
	}
	scales := ComputeLogScales(p)
	// All rescales divide by the maximum value s_f = 2^60.
	for _, term := range p.TopoSort() {
		if term.Op == core.OpRescale && term.LogScale != 60 {
			t.Errorf("rescale divisor 2^%g, want 2^60", term.LogScale)
		}
	}
	// The two operands of the bottom multiply end up at the same chain length,
	// so Constraint 1 holds without MOD_SWITCH (as the paper notes).
	levels := termLevels(p)
	var bottom *core.Term
	for _, term := range p.TopoSort() {
		if term.Op == core.OpMultiply && levels[term] > 0 {
			bottom = term
		}
	}
	if bottom == nil {
		t.Fatal("could not locate bottom multiply")
	}
	if levels[bottom.Parm(0)] != levels[bottom.Parm(1)] {
		t.Errorf("bottom multiply operand levels differ: %d vs %d", levels[bottom.Parm(0)], levels[bottom.Parm(1)])
	}
	// Output scale after the final rescale is 2^(90-60) = 2^30.
	out := p.Outputs()[0].Term
	if out.Op != core.OpRescale {
		t.Fatalf("output should be the final rescale, got %s", out.Op)
	}
	if scales[out] != 30 {
		t.Errorf("output scale 2^%g, want 2^30", scales[out])
	}
}

// TestFigure2DefaultWaterlineNeedsModSwitch checks the default waterline
// (max root scale = 2^60): only two rescales are inserted and the y-branch
// then needs a MOD_SWITCH, which EAGER-MODSWITCH places directly below y.
func TestFigure2DefaultWaterlineNeedsModSwitch(t *testing.T) {
	p := buildX2Y3(t)
	if err := InsertRescaleWaterline(p, 60, 0); err != nil {
		t.Fatal(err)
	}
	if got := countOps(p)[core.OpRescale]; got != 2 {
		t.Fatalf("rescale count = %d, want 2 for waterline 2^60", got)
	}
	InsertModSwitchEager(p)
	counts := countOps(p)
	if counts[core.OpModSwitch] == 0 {
		t.Fatal("expected at least one MOD_SWITCH")
	}
	// After insertion, every binary instruction has level-matched operands.
	levels := termLevels(p)
	for _, term := range p.TopoSort() {
		if term.Op.IsBinary() {
			if levels[term.Parm(0)] != levels[term.Parm(1)] {
				t.Errorf("%s operand levels differ: %d vs %d", term, levels[term.Parm(0)], levels[term.Parm(1)])
			}
		}
	}
}

// TestFigure2AlwaysRescale reproduces Figure 2(b): ALWAYS-RESCALE inserts a
// rescale after every multiplication, dividing by the smaller operand scale.
func TestFigure2AlwaysRescale(t *testing.T) {
	p := buildX2Y3(t)
	if err := InsertRescaleAlways(p, 60); err != nil {
		t.Fatal(err)
	}
	if got := countOps(p)[core.OpRescale]; got != 4 {
		t.Fatalf("rescale count = %d, want 4 (one per multiply)", got)
	}
	divisors := map[float64]int{}
	for _, term := range p.TopoSort() {
		if term.Op == core.OpRescale {
			divisors[term.LogScale]++
		}
	}
	// x² rescales by 2^60; y², y³ and the bottom multiply rescale by 2^30.
	if divisors[60] != 1 || divisors[30] != 3 {
		t.Errorf("divisor histogram = %v, want map[60:1 30:3]", divisors)
	}
}

// TestFigure3MatchScale reproduces Figure 3(c): for x² + x the compiler
// multiplies x by the constant 1 at scale 2^30 instead of rescaling, so no
// RESCALE or MOD_SWITCH is introduced and the modulus chain stays short.
func TestFigure3MatchScale(t *testing.T) {
	p := buildX2PlusX(t)
	if err := Transform(p, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	counts := countOps(p)
	if counts[core.OpRescale] != 0 || counts[core.OpModSwitch] != 0 {
		t.Errorf("got %d rescales and %d modswitches, want none", counts[core.OpRescale], counts[core.OpModSwitch])
	}
	if counts[core.OpConstant] != 1 {
		t.Fatalf("constant count = %d, want 1 (the scale-matching 1)", counts[core.OpConstant])
	}
	var one *core.Term
	for _, term := range p.TopoSort() {
		if term.Op == core.OpConstant {
			one = term
		}
	}
	if one.Value[0] != 1 || one.LogScale != 30 {
		t.Errorf("scale-matching constant = %v at 2^%g, want 1 at 2^30", one.Value, one.LogScale)
	}
	// The ADD operands now have equal scales.
	scales := ComputeLogScales(p)
	for _, term := range p.TopoSort() {
		if term.Op == core.OpAdd {
			if scales[term.Parm(0)] != scales[term.Parm(1)] {
				t.Errorf("ADD operand scales differ: %g vs %g", scales[term.Parm(0)], scales[term.Parm(1)])
			}
		}
	}
}

// TestFigure5LazyVsEagerModSwitch reproduces Figure 5: lazy insertion places
// one MOD_SWITCH before each ADD (two total), while eager insertion places a
// single shared MOD_SWITCH directly below the input x.
func TestFigure5LazyVsEagerModSwitch(t *testing.T) {
	lazy := buildX2PlusXPlusX(t)
	if err := InsertRescaleWaterline(lazy, 60, 0); err != nil {
		t.Fatal(err)
	}
	InsertModSwitchLazy(lazy)
	if got := countOps(lazy)[core.OpModSwitch]; got != 2 {
		t.Fatalf("lazy MOD_SWITCH count = %d, want 2", got)
	}

	eager := buildX2PlusXPlusX(t)
	if err := InsertRescaleWaterline(eager, 60, 0); err != nil {
		t.Fatal(err)
	}
	InsertModSwitchEager(eager)
	if got := countOps(eager)[core.OpModSwitch]; got != 1 {
		t.Fatalf("eager MOD_SWITCH count = %d, want 1", got)
	}
	// The single MOD_SWITCH hangs directly below the input x and feeds both ADDs.
	var ms *core.Term
	for _, term := range eager.TopoSort() {
		if term.Op == core.OpModSwitch {
			ms = term
		}
	}
	if ms.Parm(0).Op != core.OpInput {
		t.Errorf("eager MOD_SWITCH parent is %s, want the input", ms.Parm(0).Op)
	}
	addUses := 0
	for _, u := range ms.Uses() {
		if u.Op == core.OpAdd {
			addUses++
		}
	}
	if addUses != 2 {
		t.Errorf("eager MOD_SWITCH feeds %d ADDs, want 2", addUses)
	}
	// Both strategies must level-match all binary operands.
	for name, prog := range map[string]*core.Program{"lazy": lazy, "eager": eager} {
		levels := termLevels(prog)
		for _, term := range prog.TopoSort() {
			if term.Op.IsBinary() && levels[term.Parm(0)] != levels[term.Parm(1)] {
				t.Errorf("%s: %s operand levels differ", name, term)
			}
		}
	}
}

// TestFigure2Relinearize reproduces Figure 2(e): RELINEARIZE is inserted
// after every ciphertext-ciphertext multiplication.
func TestFigure2Relinearize(t *testing.T) {
	p := buildX2Y3(t)
	if err := InsertRescaleWaterline(p, 60, 30); err != nil {
		t.Fatal(err)
	}
	InsertRelinearize(p)
	counts := countOps(p)
	if counts[core.OpRelinearize] != 4 {
		t.Fatalf("relinearize count = %d, want 4 (one per ct-ct multiply)", counts[core.OpRelinearize])
	}
	// Every multiply of two Cipher operands is immediately followed by a
	// RELINEARIZE before any other use.
	order := p.TopoSort()
	types := core.InferTypes(order)
	for _, term := range order {
		if term.Op != core.OpMultiply {
			continue
		}
		if types.Get(term.Parm(0)) != core.TypeCipher || types.Get(term.Parm(1)) != core.TypeCipher {
			continue
		}
		for _, u := range term.Uses() {
			if u.Op != core.OpRelinearize {
				t.Errorf("ct-ct multiply %s is used by %s before relinearization", term, u)
			}
		}
	}
}

func TestRelinearizeSkipsPlainMultiplies(t *testing.T) {
	p := core.MustNewProgram("plain-mult", 8)
	x, _ := p.NewInput("x", core.TypeCipher, 8, 30)
	c, _ := p.NewScalarConstant(0.5, 15)
	xc, _ := p.NewBinary(core.OpMultiply, x, c)
	p.AddOutput("out", xc, 30)
	InsertRelinearize(p)
	if got := countOps(p)[core.OpRelinearize]; got != 0 {
		t.Errorf("relinearize count = %d, want 0 for cipher-plain multiply", got)
	}
}

func TestInsertRescaleFixed(t *testing.T) {
	p := buildX2Y3(t)
	if err := InsertRescaleFixed(p, 60); err != nil {
		t.Fatal(err)
	}
	if got := countOps(p)[core.OpRescale]; got != 4 {
		t.Fatalf("fixed rescale count = %d, want 4", got)
	}
	for _, term := range p.TopoSort() {
		if term.Op == core.OpRescale && term.LogScale != 60 {
			t.Errorf("fixed rescale divisor 2^%g, want 2^60", term.LogScale)
		}
	}
	if err := InsertRescaleFixed(p, 0); err == nil {
		t.Error("expected error for non-positive divisor")
	}
}

func TestTransformOutputRedirection(t *testing.T) {
	// When the output term itself is rescaled/relinearized, the program
	// output must point at the newly inserted term.
	p := buildX2Y3(t)
	if err := Transform(p, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	out := p.Outputs()[0].Term
	if out.Op == core.OpMultiply {
		t.Errorf("output still points at the raw multiply; expected the inserted wrapper, got %s", out.Op)
	}
}

func TestTransformStrategyValidation(t *testing.T) {
	p := buildX2PlusX(t)
	if err := Transform(p, Options{MaxRescaleLog: 60, Rescale: RescaleStrategy(99)}); err == nil {
		t.Error("expected error for unknown rescale strategy")
	}
	if err := Transform(p, Options{MaxRescaleLog: 60, ModSwitch: ModSwitchStrategy(99)}); err == nil {
		t.Error("expected error for unknown modswitch strategy")
	}
}

func TestWaterlineComputation(t *testing.T) {
	p := core.MustNewProgram("w", 8)
	x, _ := p.NewInput("x", core.TypeCipher, 8, 25)
	c, _ := p.NewScalarConstant(2, 40)
	m, _ := p.NewBinary(core.OpMultiply, x, c)
	p.AddOutput("o", m, 25)
	if got := Waterline(p.TopoSort()); got != 40 {
		t.Errorf("Waterline = %g, want 40", got)
	}
}

func TestComputeLogScales(t *testing.T) {
	p := core.MustNewProgram("scales", 8)
	x, _ := p.NewInput("x", core.TypeCipher, 8, 30)
	y, _ := p.NewInput("y", core.TypeCipher, 8, 20)
	m, _ := p.NewBinary(core.OpMultiply, x, y) // 50
	r, _ := p.NewRescale(m, 25)                // 25
	n, _ := p.NewUnary(core.OpNegate, r)       // 25
	a, _ := p.NewBinary(core.OpAdd, n, x)      // max(25,30) = 30
	rot, _ := p.NewRotation(core.OpRotateLeft, a, 2)
	p.AddOutput("o", rot, 30)
	scales := ComputeLogScales(p)
	want := map[*core.Term]float64{x: 30, y: 20, m: 50, r: 25, n: 25, a: 30, rot: 30}
	for term, w := range want {
		if scales[term] != w {
			t.Errorf("scale of %s = %g, want %g", term, scales[term], w)
		}
	}
}

func TestReverseLevels(t *testing.T) {
	p := buildX2PlusXPlusX(t)
	if err := InsertRescaleWaterline(p, 60, 0); err != nil {
		t.Fatal(err)
	}
	rlevels := reverseLevels(p)
	x := p.InputByName("x")
	if rlevels[x] != 1 {
		t.Errorf("rlevel(x) = %d, want 1", rlevels[x])
	}
	out := p.Outputs()[0].Term
	if rlevels[out] != 0 {
		t.Errorf("rlevel(output) = %d, want 0", rlevels[out])
	}
}

func TestEagerModSwitchEqualizesRoots(t *testing.T) {
	// Two Cipher inputs at different depths: the shallower root must be
	// padded with MOD_SWITCH directly below it (the paper's root rule).
	p := core.MustNewProgram("roots", 8)
	x, _ := p.NewInput("x", core.TypeCipher, 8, 60)
	y, _ := p.NewInput("y", core.TypeCipher, 8, 60)
	x2, _ := p.NewBinary(core.OpMultiply, x, x)
	x4, _ := p.NewBinary(core.OpMultiply, x2, x2)
	p.AddOutput("deep", x4, 60)
	p.AddOutput("shallow", y, 60)
	if err := InsertRescaleWaterline(p, 60, 0); err != nil {
		t.Fatal(err)
	}
	InsertModSwitchEager(p)
	rlevels := reverseLevels(p)
	if rlevels[x] != rlevels[y] {
		t.Errorf("root rlevels differ after eager insertion: %d vs %d", rlevels[x], rlevels[y])
	}
	// y's drops were inserted directly below y.
	if len(y.Uses()) != 1 || y.Uses()[0].Op != core.OpModSwitch {
		t.Error("shallow root should feed a MOD_SWITCH chain")
	}
	// The shallow output follows the chain.
	for _, o := range p.Outputs() {
		if o.Name == "shallow" && o.Term == y {
			t.Error("shallow output should have been redirected to the padded chain")
		}
	}
}

func TestLevelsComputation(t *testing.T) {
	p := buildX2Y3(t)
	if err := InsertRescaleWaterline(p, 60, 30); err != nil {
		t.Fatal(err)
	}
	levels := termLevels(p)
	out := p.Outputs()[0].Term
	if levels[out] != 2 {
		t.Errorf("output level = %d, want 2", levels[out])
	}
	for _, in := range p.Inputs() {
		if levels[in] != 0 {
			t.Errorf("input level = %d, want 0", levels[in])
		}
	}
}
