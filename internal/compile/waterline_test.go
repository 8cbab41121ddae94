package compile_test

import (
	"math"
	"testing"

	"eva/internal/ckks"
	"eva/internal/compile"
	"eva/internal/execute"
	"eva/internal/lang"
)

// TestWaterlineAbovePrimeLimit: a waterline above the largest chain prime the
// backend generates (62 bits against 60) sizes every waterline-sized prime —
// MOD_SWITCH positions and ExtraLevels headroom — at the limit, so the plan
// instantiates and the encrypted run decodes what the reference computes.
func TestWaterlineAbovePrimeLimit(t *testing.T) {
	prog, err := lang.ParseProgram(`program q vec=8;
input x @62;
input y @62;
output o = x * x * x @30;
output o2 = y @60;`)
	if err != nil {
		t.Fatal(err)
	}
	in := execute.Inputs{
		"x": {0.5, -0.25, 1, 0.75, -1, 0.125, 0.3, -0.6},
		"y": {1, 2, -3, 0.5, 0, -0.5, 0.25, 4},
	}
	want, err := execute.RunReference(prog, in)
	if err != nil {
		t.Fatal(err)
	}
	for _, extra := range []int{0, 1} {
		res, err := compile.Compile(prog, compile.Options{AllowInsecure: true, ExtraLevels: extra})
		if err != nil {
			t.Fatal(err)
		}
		for _, bits := range res.Plan.BitSizes {
			if bits > 60 {
				t.Fatalf("ExtraLevels %d: chain %v has a prime above 60 bits", extra, res.Plan.BitSizes)
			}
		}
		prng := ckks.NewTestPRNG(3)
		ctx, keys, err := execute.NewContext(res, prng)
		if err != nil {
			t.Fatalf("ExtraLevels %d: %v", extra, err)
		}
		enc, err := execute.EncryptInputs(ctx, res, keys, in, prng)
		if err != nil {
			t.Fatal(err)
		}
		out, err := execute.Run(ctx, res, enc, execute.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got, _ := execute.DecryptOutputs(ctx, res, keys, out)
		for name, w := range want {
			for i := range w {
				if d := math.Abs(got[name][i] - w[i]); d > 1e-6 {
					t.Errorf("ExtraLevels %d: output %q slot %d = %g, want %g", extra, name, i, got[name][i], w[i])
				}
			}
		}
		compile.ReleasePlan(res)
	}
}
