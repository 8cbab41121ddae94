package execute_test

import (
	"testing"

	"eva/internal/chet"
	"eva/internal/compile"
	"eva/internal/core"
	"eva/internal/execute"
)

// TestChetStyleCompilationExecutes: the CHET baseline pipeline (a fixed
// rescale after every ciphertext multiply, lazy modulus switching) produces
// a valid program that the bulk-synchronous scheduler runs to the plain
// reference's result.
func TestChetStyleCompilationExecutes(t *testing.T) {
	p := core.MustNewProgram("poly", 8)
	x, _ := p.NewInput("x", core.TypeCipher, 8, 40)
	y, _ := p.NewInput("y", core.TypeCipher, 8, 40)
	x2, _ := p.NewBinary(core.OpMultiply, x, x)
	y2, _ := p.NewBinary(core.OpMultiply, y, y)
	y3, _ := p.NewBinary(core.OpMultiply, y2, y)
	xy, _ := p.NewBinary(core.OpMultiply, x2, y3)
	s1, _ := p.NewBinary(core.OpAdd, xy, x)
	s2, _ := p.NewBinary(core.OpSub, s1, y)
	if err := p.AddOutput("out", s2, 40); err != nil {
		t.Fatal(err)
	}
	in := randomInputs(p, 4)
	want, err := execute.RunReference(p, in)
	if err != nil {
		t.Fatal(err)
	}
	res, err := chet.Compile(p, compile.Options{AllowInsecure: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { compile.ReleasePlan(res) })
	f := newFixture(t, res, in, 1)
	if worst := maxRunError(t, f, f.run(t, execute.RunOptions{Scheduler: execute.SchedulerBulkSynchronous}), want); worst > 1e-3 {
		t.Errorf("max error %g against the reference, want <= 1e-3", worst)
	}
}
