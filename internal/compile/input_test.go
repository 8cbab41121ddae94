package compile_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"eva/internal/apps"
	"eva/internal/compile"
	"eva/internal/core"
	"eva/internal/execute"
	"eva/internal/nn"
)

// TestCompileLeavesInputAlone: compiling the bench-config networks and the
// six applications changes nothing of the source program — its serialized
// form is byte-identical before and after, and so is its cleartext reference
// result. The compiled program shares the source's constant values, so a
// pass that wrote one would fail here.
func TestCompileLeavesInputAlone(t *testing.T) {
	progs := map[string]*core.Program{}
	for _, net := range nn.All(nn.BenchConfig()) {
		prog, err := nn.BuildProgram(net, nn.RandomWeights(net, rand.New(rand.NewSource(1))))
		if err != nil {
			t.Fatal(err)
		}
		progs["nn/"+net.Name] = prog
	}
	suite, err := apps.Suite(64, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range suite {
		progs["app/"+app.Name] = app.Program
	}

	opts := compile.DefaultOptions()
	opts.AllowInsecure = true
	for name, prog := range progs {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			inputs := execute.Inputs{}
			for _, in := range prog.Inputs() {
				v := make([]float64, in.VecWidth)
				for i := range v {
					v[i] = rng.Float64()*2 - 1
				}
				inputs[in.Name] = v
			}
			source := func() ([]byte, map[string][]float64) {
				t.Helper()
				data, err := prog.SerializeBytes()
				if err != nil {
					t.Fatal(err)
				}
				out, err := execute.RunReference(prog, inputs)
				if err != nil {
					t.Fatal(err)
				}
				return data, out
			}
			data, out := source()
			res, err := compile.Compile(prog, opts)
			if err != nil {
				t.Fatal(err)
			}
			compile.ReleasePlan(res)
			after, afterOut := source()
			if !bytes.Equal(data, after) {
				t.Error("compiling changed the serialized source program")
			}
			if !reflect.DeepEqual(out, afterOut) {
				t.Error("compiling changed the source program's reference result")
			}
		})
	}
}
