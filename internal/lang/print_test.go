package lang_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"eva/internal/apps"
	"eva/internal/builder"
	"eva/internal/compile"
	"eva/internal/core"
	"eva/internal/lang"
	"eva/internal/nn"
)

// roundTrip asserts Lower(Parse(Print(p))) == p.
func roundTrip(t *testing.T, p *core.Program) {
	t.Helper()
	src, err := lang.Print(p)
	if err != nil {
		t.Fatalf("Print: %v", err)
	}
	back, err := lang.ParseProgram(src)
	if err != nil {
		t.Fatalf("re-parsing printed source: %v\nsource:\n%s", err, src)
	}
	if err := core.Equal(p, back); err != nil {
		t.Fatalf("round trip changed the program: %v\nsource:\n%s", err, src)
	}
}

func TestPrintCanonicalForm(t *testing.T) {
	b := builder.New("quickstart", 8)
	x := b.Input("x", 30)
	y := b.Input("y", 30)
	b.Output("result", x.Square().Add(y).MulScalar(0.5, 30), 30)
	p, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	src, err := lang.Print(p)
	if err != nil {
		t.Fatal(err)
	}
	want := `program quickstart vec=8;
input x @30;
input y @30;
result = (x * x + y) * 0.5@30;
output result @30;
`
	if src != want {
		t.Errorf("canonical source mismatch:\ngot:\n%s\nwant:\n%s", src, want)
	}
	roundTrip(t, p)
}

// TestPrintPreservesSharing: a multi-use term must print as a named binding
// so the re-parsed DAG has the same shape.
func TestPrintPreservesSharing(t *testing.T) {
	b := builder.New("shared", 8)
	x := b.Input("x", 30)
	sq := x.Square()
	b.Output("out", sq.Add(sq).Mul(sq), 30)
	p := b.MustProgram()
	src, err := lang.Print(p)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(src, "= x * x;") {
		t.Errorf("shared term not bound to a name:\n%s", src)
	}
	roundTrip(t, p)
}

// TestPrintOutputNameCollision: an output named like an input but referring
// to a different term must not capture the input's binding.
func TestPrintNameEdgeCases(t *testing.T) {
	p := core.MustNewProgram("edge", 8)
	x, _ := p.NewInput("x", core.TypeCipher, 8, 30)
	sq, _ := p.NewBinary(core.OpMultiply, x, x)
	// Output "x" refers to sq, not to the input x.
	if err := p.AddOutput("x", sq, 30); err != nil {
		t.Fatal(err)
	}
	// A second output for the same term, and one aliasing the input directly.
	if err := p.AddOutput("alias", sq, 31); err != nil {
		t.Fatal(err)
	}
	if err := p.AddOutput("direct", x, 30); err != nil {
		t.Fatal(err)
	}
	roundTrip(t, p)
}

func TestPrintNegativeAndVectorConstants(t *testing.T) {
	b := builder.New("consts", 8)
	x := b.Input("x", 30)
	v := x.MulVector([]float64{-1, 0.5, 3e-9, 1e20, -0, 7, 8, 9}, 25)
	b.Output("out", v.AddScalar(-2.25, 30), 30)
	roundTrip(t, b.MustProgram())
}

func TestPrintCompilerOps(t *testing.T) {
	p := core.MustNewProgram("compiled", 8)
	x, _ := p.NewInput("x", core.TypeCipher, 8, 60)
	sq, _ := p.NewBinary(core.OpMultiply, x, x)
	rl, _ := p.NewUnary(core.OpRelinearize, sq)
	rs, _ := p.NewRescale(rl, 30)
	ms, _ := p.NewUnary(core.OpModSwitch, rs)
	ng, _ := p.NewUnary(core.OpNegate, ms)
	_ = p.AddOutput("out", ng, 30)
	src, err := lang.Print(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"relin(", "rescale(", "modswitch(", "neg("} {
		if !strings.Contains(src, want) {
			t.Errorf("printed source missing %s:\n%s", want, src)
		}
	}
	roundTrip(t, p)
}

func TestPrintRejectsUnprintable(t *testing.T) {
	bad := core.MustNewProgram("bad", 8)
	if _, err := bad.NewInput("not an ident", core.TypeCipher, 8, 30); err != nil {
		t.Fatal(err)
	}
	in := bad.InputByName("not an ident")
	_ = bad.AddOutput("out", in, 30)
	if _, err := lang.Print(bad); err == nil {
		t.Error("Print accepted a non-identifier input name")
	}

	reserved := core.MustNewProgram("bad2", 8)
	rin, _ := reserved.NewInput("rescale", core.TypeCipher, 8, 30)
	_ = reserved.AddOutput("out", rin, 30)
	if _, err := lang.Print(reserved); err == nil {
		t.Error("Print accepted a reserved word as an input name")
	}
}

// TestPrintedProgramNameQuoting: non-identifier program names survive via
// string literals.
func TestPrintedProgramNameQuoting(t *testing.T) {
	p := core.MustNewProgram("LeNet-5 (small)", 4)
	x, _ := p.NewInput("x", core.TypeCipher, 4, 30)
	_ = p.AddOutput("out", x, 30)
	src, err := lang.Print(p)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(src, `program "LeNet-5 (small)" vec=4;`) {
		t.Errorf("program name not quoted:\n%s", src)
	}
	roundTrip(t, p)
}

// TestPrintIsCreationOrderIndependent: structurally equal programs print to
// byte-identical source, no matter how or in what order their terms were
// created — names and binding order come from the structural DFS order, not
// from in-memory term ids.
func TestPrintIsCreationOrderIndependent(t *testing.T) {
	build := func(rotFirst int) *core.Program {
		p := core.MustNewProgram("p", 8)
		x, _ := p.NewInput("x", core.TypeCipher, 8, 30)
		var r1, r2 *core.Term
		if rotFirst == 1 {
			r1, _ = p.NewRotation(core.OpRotateLeft, x, 1)
			r2, _ = p.NewRotation(core.OpRotateLeft, x, 2)
		} else {
			r2, _ = p.NewRotation(core.OpRotateLeft, x, 2)
			r1, _ = p.NewRotation(core.OpRotateLeft, x, 1)
		}
		s1, _ := p.NewBinary(core.OpAdd, r1, r2)
		sum, _ := p.NewBinary(core.OpAdd, s1, r1) // r1 shared -> named binding
		_ = p.AddOutput("out", sum, 30)
		return p
	}
	a, err := lang.Print(build(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := lang.Print(build(2))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("creation order leaked into printed source:\n%s\nvs:\n%s", a, b)
	}

	// A serialize/deserialize round trip (which renumbers terms) must also
	// print identically.
	p := build(1)
	data, err := p.SerializeBytes()
	if err != nil {
		t.Fatal(err)
	}
	rt, err := core.DeserializeBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	c, err := lang.Print(rt)
	if err != nil {
		t.Fatal(err)
	}
	if a != c {
		t.Errorf("deserialized clone prints differently:\n%s\nvs:\n%s", a, c)
	}
}

// TestCanonicalityAcrossRepositoryPrograms is the printer-canonicality
// sweep: every program the bench harness, evac's demo and the examples
// build — and its compiled form, which exercises the relin/modswitch/rescale
// syntax — must survive Lower(Parse(Print(p))) unchanged.
func TestCanonicalityAcrossRepositoryPrograms(t *testing.T) {
	var programs []*core.Program

	// evac's x²y³ demo (Figure 2).
	demo := core.MustNewProgram("x2y3", 8)
	x, _ := demo.NewInput("x", core.TypeCipher, 8, 60)
	y, _ := demo.NewInput("y", core.TypeCipher, 8, 30)
	x2, _ := demo.NewBinary(core.OpMultiply, x, x)
	y2, _ := demo.NewBinary(core.OpMultiply, y, y)
	y3, _ := demo.NewBinary(core.OpMultiply, y2, y)
	out, _ := demo.NewBinary(core.OpMultiply, x2, y3)
	_ = demo.AddOutput("out", out, 30)
	programs = append(programs, demo)

	suite, err := apps.Suite(16, 8) // the Table 8 applications (examples/*)
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range suite {
		programs = append(programs, app.Program)
	}

	cfg := nn.Config{InputSize: 4, ChannelDivisor: 64}
	for _, net := range nn.All(cfg) {
		rng := rand.New(rand.NewSource(7))
		prog, err := nn.BuildProgram(net, nn.RandomWeights(net, rng))
		if err != nil {
			t.Fatalf("building %s: %v", net.Name, err)
		}
		programs = append(programs, prog)
	}

	opts := compile.DefaultOptions()
	opts.AllowInsecure = true
	// range captures the original length, so the compiled copies appended
	// here are not themselves re-compiled.
	for _, p := range programs {
		compiled, err := compile.Compile(p, opts)
		if err != nil {
			t.Fatalf("compiling %s: %v", p.Name, err)
		}
		programs = append(programs, compiled.Program)
	}

	for i, p := range programs {
		t.Run(fmt.Sprintf("%02d-%s", i, p.Name), func(t *testing.T) {
			roundTrip(t, p)
		})
	}
}
