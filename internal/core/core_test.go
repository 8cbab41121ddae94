package core

import (
	"bytes"
	"strings"
	"testing"
)

// buildX2Y3 constructs the x²y³ example of Figure 2(a).
func buildX2Y3(t *testing.T) (*Program, *Term, *Term) {
	t.Helper()
	p := MustNewProgram("x2y3", 8)
	x, err := p.NewInput("x", TypeCipher, 8, 60)
	if err != nil {
		t.Fatal(err)
	}
	y, err := p.NewInput("y", TypeCipher, 8, 30)
	if err != nil {
		t.Fatal(err)
	}
	x2, _ := p.NewBinary(OpMultiply, x, x)
	y2, _ := p.NewBinary(OpMultiply, y, y)
	y3, _ := p.NewBinary(OpMultiply, y2, y)
	out, _ := p.NewBinary(OpMultiply, x2, y3)
	if err := p.AddOutput("out", out, 30); err != nil {
		t.Fatal(err)
	}
	return p, x, y
}

func TestNewProgramValidation(t *testing.T) {
	if _, err := NewProgram("bad", 3); err == nil {
		t.Error("expected error for non power-of-two vector size")
	}
	if _, err := NewProgram("bad", 0); err == nil {
		t.Error("expected error for zero vector size")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNewProgram should panic on invalid size")
		}
	}()
	MustNewProgram("bad", 7)
}

func TestProgramConstruction(t *testing.T) {
	p, x, y := buildX2Y3(t)
	if p.NumTerms() != 6 {
		t.Errorf("NumTerms = %d, want 6", p.NumTerms())
	}
	if len(p.Inputs()) != 2 || len(p.Outputs()) != 1 {
		t.Errorf("inputs/outputs = %d/%d", len(p.Inputs()), len(p.Outputs()))
	}
	if p.InputByName("x") != x || p.InputByName("y") != y {
		t.Error("InputByName lookup failed")
	}
	if p.InputByName("missing") != nil {
		t.Error("lookup of missing input should be nil")
	}
	if _, err := p.ValidateStructure(true); err != nil {
		t.Errorf("ValidateStructure: %v", err)
	}
	stats := p.ComputeStats()
	if stats.Instructions["MULTIPLY"] != 4 {
		t.Errorf("MULTIPLY count = %d, want 4", stats.Instructions["MULTIPLY"])
	}
	if stats.MultDepth != 3 || stats.Inputs != 2 || stats.Outputs != 1 {
		t.Errorf("unexpected stats %+v", stats)
	}
}

func TestProgramInputErrors(t *testing.T) {
	p := MustNewProgram("p", 8)
	if _, err := p.NewInput("a", TypeInvalid, 8, 30); err == nil {
		t.Error("expected error for invalid type")
	}
	if _, err := p.NewInput("a", TypeCipher, 3, 30); err == nil {
		t.Error("expected error for non power-of-two width")
	}
	if _, err := p.NewInput("a", TypeCipher, 16, 30); err == nil {
		t.Error("expected error for width exceeding vector size")
	}
	if _, err := p.NewInput("a", TypeCipher, 8, 30); err != nil {
		t.Fatal(err)
	}
	if _, err := p.NewInput("a", TypeCipher, 8, 30); err == nil {
		t.Error("expected error for duplicate input name")
	}
	if _, err := p.NewConstant([]float64{1, 2, 3}, 30); err == nil {
		t.Error("expected error for non power-of-two constant")
	}
	if _, err := p.NewConstant(nil, 30); err == nil {
		t.Error("expected error for empty constant")
	}
	if _, err := p.NewScalarConstant(1.5, 30); err != nil {
		t.Errorf("scalar constant: %v", err)
	}
}

func TestInstructionConstructorErrors(t *testing.T) {
	p := MustNewProgram("p", 8)
	x, _ := p.NewInput("x", TypeCipher, 8, 30)
	if _, err := p.NewBinary(OpNegate, x, x); err == nil {
		t.Error("expected error using NEGATE as binary")
	}
	if _, err := p.NewBinary(OpAdd, x, nil); err == nil {
		t.Error("expected error for nil operand")
	}
	if _, err := p.NewUnary(OpAdd, x); err == nil {
		t.Error("expected error using ADD as unary")
	}
	if _, err := p.NewUnary(OpRotateLeft, x); err == nil {
		t.Error("expected error using rotation as plain unary")
	}
	if _, err := p.NewUnary(OpNegate, nil); err == nil {
		t.Error("expected error for nil unary operand")
	}
	if _, err := p.NewRotation(OpAdd, x, 1); err == nil {
		t.Error("expected error using ADD as rotation")
	}
	if _, err := p.NewRotation(OpRotateLeft, nil, 1); err == nil {
		t.Error("expected error for nil rotation operand")
	}
	if _, err := p.NewRescale(nil, 30); err == nil {
		t.Error("expected error for nil rescale operand")
	}
	if _, err := p.NewRescale(x, 0); err == nil {
		t.Error("expected error for non-positive rescale divisor")
	}
	if err := p.AddOutput("o", nil, 30); err == nil {
		t.Error("expected error for nil output term")
	}
	if err := p.AddOutput("o", x, 30); err != nil {
		t.Fatal(err)
	}
	if err := p.AddOutput("o", x, 30); err == nil {
		t.Error("expected error for duplicate output name")
	}
}

func TestTopoSortAndLiveness(t *testing.T) {
	p, x, _ := buildX2Y3(t)
	// Add a dead term: it should not appear in TopoSort.
	dead, _ := p.NewUnary(OpNegate, x)
	_ = dead
	order := p.TopoSort()
	pos := map[*Term]int{}
	for i, t2 := range order {
		if t2 == dead {
			t.Error("dead term included in TopoSort")
		}
		pos[t2] = i
	}
	for _, t2 := range order {
		for _, parm := range t2.Parms() {
			if pos[parm] >= pos[t2] {
				t.Fatalf("parameter %s not before %s", parm, t2)
			}
		}
	}
}

func TestInferTypes(t *testing.T) {
	p := MustNewProgram("types", 8)
	x, _ := p.NewInput("x", TypeCipher, 8, 30)
	v, _ := p.NewInput("v", TypeVector, 8, 30)
	c, _ := p.NewScalarConstant(2, 30)
	xc, _ := p.NewBinary(OpMultiply, x, c)
	vc, _ := p.NewBinary(OpMultiply, v, c)
	p.AddOutput("xc", xc, 30)
	p.AddOutput("vc", vc, 30)
	types := InferTypes(p.TopoSort())
	if types.Get(x) != TypeCipher || types.Get(xc) != TypeCipher {
		t.Error("cipher type not propagated")
	}
	if types.Get(v) != TypeVector || types.Get(vc) != TypeVector {
		t.Error("vector type not propagated")
	}
	if types.Get(c) != TypeScalar {
		t.Error("scalar constant type wrong")
	}
}

// TestRotationSteps: the statistics count distinct left-rotation steps, a
// right rotation by k being a left one by -k, and no step for an identity
// rotation by a multiple of the vector size.
func TestRotationSteps(t *testing.T) {
	p := MustNewProgram("rot", 8)
	x, _ := p.NewInput("x", TypeCipher, 8, 30)
	sum, _ := p.NewRotation(OpRotateLeft, x, 1)
	for _, r := range []struct {
		op OpCode
		by int
	}{{OpRotateRight, 2}, {OpRotateLeft, -2}, {OpRotateLeft, 0}, {OpRotateLeft, 8}, {OpRotateRight, 16}} {
		rot, _ := p.NewRotation(r.op, x, r.by)
		sum, _ = p.NewBinary(OpAdd, sum, rot)
	}
	p.AddOutput("o", sum, 30)
	if steps := p.ComputeStats().RotationSteps; steps != 2 {
		t.Errorf("RotationSteps = %d, want 2 (steps -2 and 1)", steps)
	}
	right, _ := p.NewRotation(OpRotateRight, x, 3)
	if got := right.EffectiveRotation(); got != -3 {
		t.Errorf("EffectiveRotation(rotate-right 3) = %d, want -3", got)
	}
}

func TestSetParmAndInsertUnaryAfter(t *testing.T) {
	p := MustNewProgram("edit", 8)
	x, _ := p.NewInput("x", TypeCipher, 8, 30)
	y, _ := p.NewInput("y", TypeCipher, 8, 30)
	sum, _ := p.NewBinary(OpAdd, x, x)
	p.AddOutput("o", sum, 30)

	// Redirect the second slot to y.
	p.SetParm(sum, 1, y)
	if sum.Parm(0) != x || sum.Parm(1) != y {
		t.Fatal("SetParm did not rewire the slot")
	}
	if len(x.UseEdges()) != 1 || len(y.UseEdges()) != 1 {
		t.Fatalf("use counts wrong: x=%d y=%d", len(x.UseEdges()), len(y.UseEdges()))
	}
	// Redirecting to the same parm is a no-op.
	p.SetParm(sum, 1, y)
	if len(y.UseEdges()) != 1 {
		t.Error("SetParm to the same term changed use counts")
	}

	// Insert a RELINEARIZE between x and its children.
	relin := p.InsertUnaryAfter(x, OpRelinearize, nil)
	if sum.Parm(0) != relin || relin.Parm(0) != x {
		t.Error("InsertUnaryAfter did not splice the node")
	}
	if len(x.UseEdges()) != 1 {
		t.Errorf("x should only be used by the inserted node, has %d uses", len(x.UseEdges()))
	}

	// Selective insertion: only slot 1 of sum.
	ms := p.InsertUnaryAfter(y, OpModSwitch, func(child *Term, slot int) bool { return child == sum && slot == 1 })
	if sum.Parm(1) != ms {
		t.Error("selective InsertUnaryAfter did not rewire the requested slot")
	}
}

func TestRedirectOutputs(t *testing.T) {
	p := MustNewProgram("out", 8)
	x, _ := p.NewInput("x", TypeCipher, 8, 30)
	y, _ := p.NewUnary(OpNegate, x)
	p.AddOutput("o", x, 30)
	p.RedirectOutputs(x, y)
	if p.Outputs()[0].Term != y {
		t.Error("RedirectOutputs did not update the output term")
	}
}

func TestValidateStructure(t *testing.T) {
	p := MustNewProgram("v", 8)
	x, _ := p.NewInput("x", TypeCipher, 8, 30)
	if _, err := p.ValidateStructure(true); err == nil {
		t.Error("expected error for program without outputs")
	}
	relin, _ := p.NewUnary(OpRelinearize, x)
	p.AddOutput("o", relin, 30)
	if _, err := p.ValidateStructure(true); err == nil {
		t.Error("expected error for compiler-only op in input program")
	}
	if _, err := p.ValidateStructure(false); err != nil {
		t.Errorf("ValidateStructure(false): %v", err)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	p, x, _ := buildX2Y3(t)
	cp := p.Clone()
	if cp.NumTerms() != p.NumTerms() || len(cp.Outputs()) != len(p.Outputs()) {
		t.Fatal("clone shape differs")
	}
	// Mutating the clone must not affect the original.
	cx := cp.InputByName("x")
	if cx == x {
		t.Fatal("clone shares term pointers with the original")
	}
	cp.InsertUnaryAfter(cx, OpRelinearize, nil)
	for _, e := range x.UseEdges() {
		if e.Child.Op == OpRelinearize {
			t.Fatal("mutating clone affected original")
		}
	}
	if _, err := cp.ValidateStructure(false); err != nil {
		t.Errorf("clone validation: %v", err)
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	p, _, _ := buildX2Y3(t)
	c, _ := p.NewScalarConstant(0.5, 30)
	rot, _ := p.NewRotation(OpRotateLeft, p.Outputs()[0].Term, 3)
	scaled, _ := p.NewBinary(OpMultiply, rot, c)
	p.AddOutput("scaled", scaled, 30)

	var buf bytes.Buffer
	if err := p.Serialize(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Deserialize(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != p.Name || back.VecSize != p.VecSize {
		t.Error("program metadata lost")
	}
	if back.NumTerms() != p.NumTerms() {
		t.Errorf("terms = %d, want %d", back.NumTerms(), p.NumTerms())
	}
	if len(back.Outputs()) != 2 {
		t.Fatalf("outputs = %d, want 2", len(back.Outputs()))
	}
	wantStats := p.ComputeStats()
	gotStats := back.ComputeStats()
	if gotStats.MultDepth != wantStats.MultDepth {
		t.Errorf("depth = %d, want %d", gotStats.MultDepth, wantStats.MultDepth)
	}
	for op, n := range wantStats.Instructions {
		if gotStats.Instructions[op] != n {
			t.Errorf("instruction count for %s = %d, want %d", op, gotStats.Instructions[op], n)
		}
	}
	if _, err := back.ValidateStructure(true); err != nil {
		t.Errorf("round-tripped program invalid: %v", err)
	}
}

func TestDeserializeErrors(t *testing.T) {
	cases := []string{
		`not json`,
		`{"name":"p","vec_size":3}`,
		`{"name":"p","vec_size":8,"insts":[{"output":5,"op_code":"BOGUS","args":[1]}]}`,
		`{"name":"p","vec_size":8,"insts":[{"output":5,"op_code":"ADD","args":[1,2]}]}`,
		`{"name":"p","vec_size":8,"inputs":[{"obj":1,"name":"x","type":"NOPE","width":8}]}`,
		`{"name":"p","vec_size":8,"outputs":[{"obj":9,"name":"o"}]}`,
	}
	for i, c := range cases {
		if _, err := Deserialize(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: expected deserialization error", i)
		}
	}
}

func TestOpCodeHelpers(t *testing.T) {
	if OpAdd.String() != "ADD" || OpRescale.String() != "RESCALE" {
		t.Error("opcode names wrong")
	}
	if OpCode(99).String() == "" {
		t.Error("unknown opcode should still format")
	}
	if op, err := ParseOpCode("MULTIPLY"); err != nil || op != OpMultiply {
		t.Error("ParseOpCode failed")
	}
	if _, err := ParseOpCode("NOPE"); err == nil {
		t.Error("expected error for unknown opcode")
	}
	if !OpInput.IsLeaf() || OpAdd.IsLeaf() {
		t.Error("IsLeaf wrong")
	}
	if !OpModSwitch.IsCompilerOp() || OpAdd.IsCompilerOp() {
		t.Error("IsCompilerOp wrong")
	}
	if !OpRotateLeft.IsRotation() || OpAdd.IsRotation() {
		t.Error("IsRotation wrong")
	}
	if !OpRescale.IsModulusChanging() || !OpModSwitch.IsModulusChanging() || OpAdd.IsModulusChanging() {
		t.Error("IsModulusChanging wrong")
	}
	if OpAdd.Arity() != 2 || OpNegate.Arity() != 1 || OpInput.Arity() != 0 {
		t.Error("Arity wrong")
	}
	if TypeCipher.String() != "CIPHER" || TypeVector.String() != "VECTOR" || TypeScalar.String() != "SCALAR" || TypeInvalid.String() != "INVALID" {
		t.Error("type names wrong")
	}
	if typ, err := ParseType("CIPHER"); err != nil || typ != TypeCipher {
		t.Error("ParseType failed")
	}
	if _, err := ParseType("NOPE"); err == nil {
		t.Error("expected error for unknown type")
	}
}

func TestTermString(t *testing.T) {
	p := MustNewProgram("s", 8)
	x, _ := p.NewInput("x", TypeCipher, 8, 30)
	c, _ := p.NewScalarConstant(1, 30)
	r, _ := p.NewRotation(OpRotateLeft, x, 2)
	rs, _ := p.NewRescale(x, 30)
	a, _ := p.NewBinary(OpAdd, r, rs)
	_ = c
	for _, term := range []*Term{x, c, r, rs, a} {
		if term.String() == "" {
			t.Error("empty Term.String()")
		}
	}
}

// TestDeserializeRejectsWrongArity checks that malformed instruction arg
// counts are rejected with an error rather than an index-out-of-range panic
// (programs arrive from untrusted clients via evaserve's /compile).
func TestDeserializeRejectsWrongArity(t *testing.T) {
	cases := map[string]string{
		"binary no args": `{"name":"m","vec_size":4,
			"inputs":[{"obj":1,"name":"x","type":"CIPHER","width":4,"log_scale":30}],
			"outputs":[{"obj":2,"name":"o","log_scale":30}],
			"insts":[{"output":2,"op_code":"ADD","args":[]}]}`,
		"unary no args": `{"name":"m","vec_size":4,
			"inputs":[{"obj":1,"name":"x","type":"CIPHER","width":4,"log_scale":30}],
			"outputs":[{"obj":2,"name":"o","log_scale":30}],
			"insts":[{"output":2,"op_code":"NEGATE","args":[]}]}`,
		"rotation no args": `{"name":"m","vec_size":4,
			"inputs":[{"obj":1,"name":"x","type":"CIPHER","width":4,"log_scale":30}],
			"outputs":[{"obj":2,"name":"o","log_scale":30}],
			"insts":[{"output":2,"op_code":"ROTATE_LEFT","args":[],"rotate_by":1}]}`,
		"binary too many": `{"name":"m","vec_size":4,
			"inputs":[{"obj":1,"name":"x","type":"CIPHER","width":4,"log_scale":30}],
			"outputs":[{"obj":2,"name":"o","log_scale":30}],
			"insts":[{"output":2,"op_code":"ADD","args":[1,1,1]}]}`,
	}
	for name, src := range cases {
		if _, err := DeserializeBytes([]byte(src)); err == nil {
			t.Errorf("%s: expected an error, got none", name)
		}
	}
}
