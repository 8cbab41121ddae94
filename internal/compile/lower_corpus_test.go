package compile_test

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"eva/internal/apps"
	"eva/internal/compile"
	"eva/internal/core"
	"eva/internal/lang"
	"eva/internal/nn"
)

// TestLoweringMatchesAnalyses cross-checks the lowering (see CheckLowering)
// on the executor's differential corpus: every examples/*.eva, the six
// applications at test size and the benchmark's SqueezeNet.
func TestLoweringMatchesAnalyses(t *testing.T) {
	progs := map[string]*core.Program{}
	sources, err := filepath.Glob("../../examples/*/*.eva")
	if err != nil || len(sources) == 0 {
		t.Fatalf("no example sources found (%v)", err)
	}
	for _, path := range sources {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if progs[filepath.Base(path)], err = lang.ParseProgram(string(src)); err != nil {
			t.Fatal(err)
		}
	}
	suite, err := apps.Suite(64, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range suite {
		progs["app/"+app.Name] = app.Program
	}
	net := nn.SqueezeNetCIFAR(nn.BenchConfig())
	if progs["nn/squeezenet-bench"], err = nn.BuildProgram(net, nn.RandomWeights(net, rand.New(rand.NewSource(1)))); err != nil {
		t.Fatal(err)
	}

	opts := compile.DefaultOptions()
	opts.AllowInsecure = true
	for name, prog := range progs {
		t.Run(name, func(t *testing.T) {
			res, err := compile.Compile(prog, opts)
			if err != nil {
				t.Fatal(err)
			}
			compile.CheckLowering(t, res)
		})
	}
}
