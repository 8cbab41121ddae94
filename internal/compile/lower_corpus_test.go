package compile_test

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"eva/internal/analysis"
	"eva/internal/apps"
	"eva/internal/compile"
	"eva/internal/core"
	"eva/internal/lang"
	"eva/internal/nn"
)

// TestLoweringMatchesAnalyses cross-checks the lowering (see CheckLowering)
// on the executor's differential corpus: every examples/*.eva, the six
// applications at test size and the benchmark's SqueezeNet. No compiled
// instruction rotates by a multiple of the vector size: Compile folds those.
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
			for _, in := range res.Instrs {
				if in.Term.Op.IsRotation() && in.Rot%prog.VecSize == 0 {
					t.Errorf("%s rotates by %d, a multiple of the vector size %d", in.Term, in.Rot, prog.VecSize)
				}
			}
		})
	}
}

// TestPeakIgnoresDeadTerms: FoldIdentityRotations leaves the rotations it
// bypasses in the graph, still naming their operands. The peak estimate
// counts only the compiled program's references, so it charges a program with
// dead terms what it charges the same program after a serialization round
// trip drops them.
func TestPeakIgnoresDeadTerms(t *testing.T) {
	want := map[string]int64{
		"Sobel Filter Detection":  1638400,
		"Harris Corner Detection": 2392064,
		"SqueezeNet-CIFAR":        37232640,
	}
	suite, err := apps.Suite(64, 8)
	if err != nil {
		t.Fatal(err)
	}
	progs := map[string]*core.Program{}
	for _, app := range suite {
		progs[app.Name] = app.Program
	}
	net := nn.SqueezeNetCIFAR(nn.BenchConfig())
	if progs[net.Name], err = nn.BuildProgram(net, nn.RandomWeights(net, rand.New(rand.NewSource(1)))); err != nil {
		t.Fatal(err)
	}
	opts := compile.DefaultOptions()
	opts.AllowInsecure = true
	for name, peak := range want {
		prog, ok := progs[name]
		if !ok {
			t.Errorf("%s: not in the corpus", name)
			continue
		}
		res, err := compile.Compile(prog, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Program.NumTerms() == len(res.Instrs) {
			t.Fatalf("%s: no dead terms after FoldIdentityRotations", name)
		}
		data, err := res.Program.SerializeBytes()
		if err != nil {
			t.Fatal(err)
		}
		back, err := core.DeserializeBytes(data)
		if err != nil {
			t.Fatal(err)
		}
		facts, err := analysis.Check(back, opts.MaxRescaleLog)
		if err != nil {
			t.Fatal(err)
		}
		rt := compile.Lower(back, facts)
		rt.Plan, rt.LogN = res.Plan, res.LogN
		if got, trip := res.PeakMemoryBytes(), rt.PeakMemoryBytes(); got != peak || trip != peak {
			t.Errorf("%s: peak %d B, after a round trip %d B; want %d B", name, got, trip, peak)
		}
	}
}
