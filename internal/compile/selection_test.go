package compile_test

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"eva/internal/apps"
	"eva/internal/ckks"
	"eva/internal/compile"
	"eva/internal/core"
	"eva/internal/lang"
	"eva/internal/nn"
)

// TestKeySwitchDigitSelection checks the rules of the digit-size choice on
// everything the repo compiles for real: the six applications at secure and at
// test sizes, every examples/*.eva, and both network configurations.
//
//   - the ring degree is the one the one-special-prime plan needs, never more;
//   - secure plans stay inside the 128-bit budget of that degree;
//   - the special primes cover every digit (digits group the chain from the
//     last-consumed prime up, α at a time);
//   - a program without key-switch terms keeps the single 60-bit special prime;
//   - the backend accepts the literal.
func TestKeySwitchDigitSelection(t *testing.T) {
	type subject struct {
		name string
		prog *core.Program
		opts compile.Options
	}
	secure, insecure := compile.DefaultOptions(), compile.DefaultOptions()
	insecure.AllowInsecure = true
	var subjects []subject

	for _, size := range []struct{ vec, img int }{{4096, 64}, {64, 8}} {
		suite, err := apps.Suite(size.vec, size.img)
		if err != nil {
			t.Fatal(err)
		}
		for _, app := range suite {
			subjects = append(subjects, subject{"app/" + app.Name, app.Program, secure})
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
		subjects = append(subjects, subject{filepath.Base(path), prog, secure}, subject{filepath.Base(path) + "/insecure", prog, insecure})
	}
	rng := rand.New(rand.NewSource(1))
	for name, cfg := range map[string]nn.Config{"bench": nn.BenchConfig(), "full": nn.FullConfig()} {
		for _, net := range []*nn.Network{nn.Industrial(cfg), nn.SqueezeNetCIFAR(cfg)} {
			prog, err := nn.BuildProgram(net, nn.RandomWeights(net, rng))
			if err != nil {
				t.Fatal(err)
			}
			subjects = append(subjects, subject{"nn/" + name + "/" + net.Name, prog, insecure})
		}
	}

	grouped := 0
	for _, s := range subjects {
		res, err := compile.Compile(s.prog, s.opts)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		plan := res.Plan
		alpha := len(plan.SpecialBits)
		if alpha > 1 {
			grouped++
		}

		// The degree the per-prime plan needs: enough slots, and — when
		// secure — room for the chain plus one 60-bit special prime.
		wantLogN := max(10, int(math.Ceil(math.Log2(float64(s.prog.VecSize))))+1)
		if !s.opts.AllowInsecure {
			if wantLogN, err = ckks.MinLogNFor(plan.LogQ()+60, wantLogN); err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
			if plan.LogQP() > ckks.MaxLogQP(res.LogN) {
				t.Errorf("%s: %d-bit modulus exceeds the %d-bit budget of logN %d", s.name, plan.LogQP(), ckks.MaxLogQP(res.LogN), res.LogN)
			}
		}
		if res.LogN != wantLogN {
			t.Errorf("%s: logN %d with %d special primes, the one-special-prime plan needs %d", s.name, res.LogN, alpha, wantLogN)
		}

		specialBits := 0
		for _, b := range plan.SpecialBits {
			specialBits += b
		}
		for hi := len(plan.BitSizes); hi > 0; hi -= alpha {
			digit := 0
			for _, b := range plan.BitSizes[max(hi-alpha, 0):hi] {
				digit += b
			}
			if digit > specialBits {
				t.Errorf("%s: a digit of %d bits exceeds the %d bits of special primes %v", s.name, digit, specialBits, plan.SpecialBits)
			}
		}

		stats := res.CompiledStats.Instructions
		if stats[core.OpRelinearize.String()]+stats[core.OpRotateLeft.String()]+stats[core.OpRotateRight.String()] == 0 &&
			!slices.Equal(plan.SpecialBits, []int{60}) {
			t.Errorf("%s: no key-switch terms, yet special primes %v", s.name, plan.SpecialBits)
		}

		if res.LogN <= 14 { // building larger rings only costs test time
			if _, err := ckks.NewParameters(res.ParametersLiteral()); err != nil {
				t.Errorf("%s: the backend rejects the selected parameters: %v", s.name, err)
			}
		}
	}
	if grouped == 0 {
		t.Error("no subject was given a digit size above 1; the selection is never exercised")
	}
}

// TestPipelineStagesShareDigitSize: programs compiled with ExtraLevels are
// pipeline stages that must agree on the whole parameter set whenever they
// agree on the chain, whatever their own key-switch terms.
func TestPipelineStagesShareDigitSize(t *testing.T) {
	opts := compile.Options{MaxRescaleLog: 30, ExtraLevels: 4, AllowInsecure: true}
	withRelin := core.MustNewProgram("stage1", 8)
	x, _ := withRelin.NewInput("x", core.TypeCipher, 8, 30)
	y, _ := withRelin.NewInput("y", core.TypeCipher, 8, 30)
	xy, _ := withRelin.NewBinary(core.OpMultiply, x, y)
	if err := withRelin.AddOutput("z", xy, 30); err != nil {
		t.Fatal(err)
	}
	plainOnly := core.MustNewProgram("stage2", 8)
	z, _ := plainOnly.NewInput("z", core.TypeCipher, 8, 30)
	half, _ := plainOnly.NewScalarConstant(0.5, 30)
	zh, _ := plainOnly.NewBinary(core.OpMultiply, z, half)
	if err := plainOnly.AddOutput("out", zh, 30); err != nil {
		t.Fatal(err)
	}
	a, err := compile.Compile(withRelin, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := compile.Compile(plainOnly, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(a.Plan.BitSizes, b.Plan.BitSizes) {
		t.Fatalf("the stages were meant to share a chain: %v vs %v", a.Plan.BitSizes, b.Plan.BitSizes)
	}
	if !slices.Equal(a.Plan.SpecialBits, b.Plan.SpecialBits) {
		t.Errorf("stages on one chain chose special primes %v and %v", a.Plan.SpecialBits, b.Plan.SpecialBits)
	}
}
