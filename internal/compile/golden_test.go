package compile_test

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"eva/internal/apps"
	"eva/internal/chet"
	"eva/internal/compile"
	"eva/internal/core"
	"eva/internal/lang"
	"eva/internal/nn"
)

// compiledDigest is one line of testdata/compiled.golden: the SHA-256 of the
// compiled program's serialization, then the parameter plan, ring degree and
// rotation steps.
func compiledDigest(t *testing.T, res *compile.Result) string {
	t.Helper()
	data, err := res.Program.SerializeBytes()
	if err != nil {
		t.Fatal(err)
	}
	pl := res.Plan
	return fmt.Sprintf("%x bits=%v special=%v chain=%d critical=%q logN=%d rot=%v",
		sha256.Sum256(data), pl.BitSizes, pl.SpecialBits, pl.MaxChainLength, pl.CriticalOutput, res.LogN, res.RotationSteps)
}

// TestCompiledMatchesGolden pins the compiler's output: every examples/*.eva,
// the six applications at test size (also with one extra level)
// and the five networks at the benchmark configuration (also compiled the
// CHET way) compile to the program, plan, ring degree and rotation steps
// recorded in testdata/compiled.golden ("name<TAB>digest" lines). The
// applications at benchmark size and the five networks are also compiled with
// the default, 128-bit secure options: there the security budget limits the
// special primes, so those lines pin the digit size α the budget allows. A
// missing or differing line is reported in the file's format.
func TestCompiledMatchesGolden(t *testing.T) {
	golden := map[string]string{}
	f, err := os.Open("testdata/compiled.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, digest, ok := strings.Cut(sc.Text(), "\t"); ok && !strings.HasPrefix(name, "#") {
			golden[name] = digest
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	secure := compile.DefaultOptions()
	opts := secure
	opts.AllowInsecure = true
	extra := opts
	extra.ExtraLevels = 1
	check := func(name string, prog *core.Program, compileFn func(*core.Program, compile.Options) (*compile.Result, error), opts compile.Options) {
		res, err := compileFn(prog, opts)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			return
		}
		defer compile.ReleasePlan(res)
		if got, want := compiledDigest(t, res), golden[name]; got != want {
			t.Errorf("compiled output differs from the golden line %q; got\n%s\t%s", want, name, got)
		}
	}

	sources, err := filepath.Glob("../../examples/*/*.eva")
	if err != nil || len(sources) == 0 {
		t.Fatalf("no example sources found (%v)", err)
	}
	for _, path := range sources {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := lang.ParseProgram(string(src))
		if err != nil {
			t.Fatal(err)
		}
		check("example/"+filepath.Base(path), prog, compile.Compile, opts)
	}
	suite, err := apps.Suite(64, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range suite {
		check("app/"+app.Name, app.Program, compile.Compile, opts)
		check("app-extra/"+app.Name, app.Program, compile.Compile, extra)
	}
	for _, net := range nn.All(nn.BenchConfig()) {
		prog, err := nn.BuildProgram(net, nn.RandomWeights(net, rand.New(rand.NewSource(1))))
		if err != nil {
			t.Fatal(err)
		}
		check("nn/"+net.Name, prog, compile.Compile, opts)
		check("nn-chet/"+net.Name, prog, chet.Compile, opts)
		check("nn-secure/"+net.Name, prog, compile.Compile, secure)
		check("nn-chet-secure/"+net.Name, prog, chet.Compile, secure)
	}
	benchSuite, err := apps.Suite(4096, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range benchSuite {
		check("app-secure/"+app.Name, app.Program, compile.Compile, secure)
	}
}
