package ckks

import (
	"fmt"
	"slices"
	"testing"

	"eva/internal/analysis"
)

// benchContext builds a realistic parameter set (N = 2^13, four 40-60 bit
// primes) for micro-benchmarking the primitive homomorphic operations whose
// costs drive every end-to-end number in the paper.
func benchContext(b *testing.B) *testContext {
	return newTestContext(b, 13, []int{60, 40, 40, 40}, 60, 1<<40, []int{1})
}

func benchVectors(tc *testContext) ([]float64, []float64) {
	a := make([]float64, tc.params.Slots())
	c := make([]float64, tc.params.Slots())
	for i := range a {
		a[i] = float64(i%17) / 17
		c[i] = float64(i%13) / 13
	}
	return a, c
}

func BenchmarkEncode(b *testing.B) {
	tc := benchContext(b)
	values, _ := benchVectors(tc)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tc.enc.Encode(values, tc.params.DefaultScale(), tc.params.MaxLevel()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecode decodes a plaintext at one, two and four limbs: the first
// two reconstruct each coefficient in machine words, the last through
// math/big.
func BenchmarkDecode(b *testing.B) {
	tc := benchContext(b)
	values, _ := benchVectors(tc)
	for _, limbs := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("limbs=%d", limbs), func(b *testing.B) {
			pt, err := tc.enc.Encode(values, tc.params.DefaultScale(), limbs-1)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tc.enc.Decode(pt)
			}
		})
	}
}

func BenchmarkEncrypt(b *testing.B) {
	tc := benchContext(b)
	values, _ := benchVectors(tc)
	pt, _ := tc.enc.Encode(values, tc.params.DefaultScale(), tc.params.MaxLevel())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tc.encr.Encrypt(pt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecrypt(b *testing.B) {
	tc := benchContext(b)
	values, _ := benchVectors(tc)
	ct := tc.encrypt(b, values)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tc.decr.Decrypt(ct)
	}
}

func BenchmarkAddCiphertexts(b *testing.B) {
	tc := benchContext(b)
	va, vb := benchVectors(tc)
	cta, ctb := tc.encrypt(b, va), tc.encrypt(b, vb)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tc.eval.Add(cta, ctb); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMulCiphertexts(b *testing.B) {
	tc := benchContext(b)
	va, vb := benchVectors(tc)
	cta, ctb := tc.encrypt(b, va), tc.encrypt(b, vb)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tc.eval.Mul(cta, ctb); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMulPlain(b *testing.B) {
	tc := benchContext(b)
	va, vb := benchVectors(tc)
	cta := tc.encrypt(b, va)
	pt, _ := tc.enc.Encode(vb, tc.params.DefaultScale(), tc.params.MaxLevel())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tc.eval.MulPlain(cta, pt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMulPlainAccumulate compares Σ ctᵢ·ptᵢ over 36 products — the
// longest chain of the bench-config SqueezeNet — as one fused kernel and as
// the MulPlain/Add sequence it replaces (intermediates recycled, so both
// sides run allocation-free). "deferred" is the double-hoisted shape at the
// bench SqueezeNet's parameters (N = 2^10, 16 chain primes, α = 4): 16
// rotations that deferred their mod-downs, summed over Q∪P and modded down
// once per component.
func BenchmarkMulPlainAccumulate(b *testing.B) {
	b.Run("deferred", func(b *testing.B) {
		steps := make([]int, 16)
		for i := range steps {
			steps[i] = i + 1
		}
		tc := newTestContextSpecials(b, 10, keySwitchBenchChains[0].logQi, []int{60, 60, 60, 60}, 1<<40, steps)
		batch, err := tc.eval.RotateHoisted(tc.encrypt(b, tc.randomVector(1, 1)), steps, slices.Repeat([]bool{true}, len(steps)))
		if err != nil {
			b.Fatal(err)
		}
		cts := make([]*Ciphertext, len(steps))
		pts := make([]*Plaintext, len(steps))
		for i, k := range steps {
			cts[i] = batch[k]
			if pts[i], err = tc.enc.EncodeExtended(tc.randomVector(int64(k), 1), tc.params.DefaultScale(), tc.params.MaxLevel()); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, err := tc.eval.MulPlainAccumulate(cts, pts)
			if err != nil {
				b.Fatal(err)
			}
			tc.eval.Recycle(out)
		}
	})
	tc := benchContext(b)
	cts, pts := accumulateOperands(b, tc, 36)
	b.Run("fused", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out, err := tc.eval.MulPlainAccumulate(cts, pts)
			if err != nil {
				b.Fatal(err)
			}
			tc.eval.Recycle(out)
		}
	})
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tc.eval.Recycle(sequentialAccumulate(b, tc.eval, cts, pts))
		}
	})
}

// keySwitchBenchChains are the two chains the key-switch benchmarks run on:
// the 16-prime small-ring chain of the bench SqueezeNet (where the digit
// count dominates) and a 5-prime production-size chain (where each limb
// transform is expensive and digits are few).
var keySwitchBenchChains = []struct {
	name  string
	logN  int
	logQi []int
}{
	{"N=1024x16", 10, []int{60, 60, 60, 60, 60, 60, 60, 60, 60, 60, 60, 60, 60, 60, 60, 60}},
	{"N=16384x5", 14, []int{60, 60, 60, 60, 60}},
}

// chosenSpecials asks the compiler's digit-size selection what it would pick
// for a chain priced on the chain alone, one relinearization per level, as
// for a pipeline stage, with no security budget — the "alpha=chosen" side of
// the key-switch benchmarks.
func chosenSpecials(logN int, logQi []int) []int {
	plan := &analysis.ParameterPlan{BitSizes: slices.Clone(logQi), SpecialBits: []int{analysis.SpecialPrimeLog}}
	slices.Reverse(plan.BitSizes) // plans list the chain in consumption order
	plan.SelectKeySwitchDigits(analysis.ChainKeySwitches(len(logQi)), logN, 0)
	return plan.SpecialBits
}

// benchKeySwitch runs body once per chain and digit size, as sub-benchmarks
// <chain>/alpha=1 and <chain>/alpha=chosen.
func benchKeySwitch(b *testing.B, rotations []int, body func(b *testing.B, tc *testContext)) {
	for _, chain := range keySwitchBenchChains {
		for _, side := range []struct {
			name  string
			logPi []int
		}{{"alpha=1", []int{60}}, {"alpha=chosen", chosenSpecials(chain.logN, chain.logQi)}} {
			b.Run(chain.name+"/"+side.name, func(b *testing.B) {
				tc := newTestContextSpecials(b, chain.logN, chain.logQi, side.logPi, 1<<40, rotations)
				body(b, tc)
				b.ReportMetric(float64(len(side.logPi)), "alpha")
			})
		}
	}
}

// The key-switch benchmarks recycle their results, as the executor does with
// values it owns, so B/op shows what an operation really allocates rather than
// the result ciphertexts leaving the pool.

func BenchmarkRelinearize(b *testing.B) {
	benchKeySwitch(b, nil, func(b *testing.B, tc *testContext) {
		va, vb := benchVectors(tc)
		prod, err := tc.eval.Mul(tc.encrypt(b, va), tc.encrypt(b, vb))
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, err := tc.eval.Relinearize(prod)
			if err != nil {
				b.Fatal(err)
			}
			tc.eval.Recycle(out)
		}
	})
}

// BenchmarkRelinearizeRescale is a relinearization whose result only feeds a
// rescale, as the executor runs it: the key switch skips its mod-down and the
// rescale divides by P·q_ℓ in one step.
func BenchmarkRelinearizeRescale(b *testing.B) {
	benchKeySwitch(b, nil, func(b *testing.B, tc *testContext) {
		va, vb := benchVectors(tc)
		prod, err := tc.eval.Mul(tc.encrypt(b, va), tc.encrypt(b, vb))
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			relin, err := tc.eval.RelinearizeDeferred(prod)
			if err != nil {
				b.Fatal(err)
			}
			out, err := tc.eval.Rescale(relin)
			if err != nil {
				b.Fatal(err)
			}
			tc.eval.Recycle(relin)
			tc.eval.Recycle(out)
		}
	})
}

func BenchmarkRescale(b *testing.B) {
	tc := benchContext(b)
	va, vb := benchVectors(tc)
	prod, err := tc.eval.Mul(tc.encrypt(b, va), tc.encrypt(b, vb))
	if err != nil {
		b.Fatal(err)
	}
	relin, err := tc.eval.Relinearize(prod)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tc.eval.Rescale(relin); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRotate(b *testing.B) {
	benchKeySwitch(b, []int{1}, func(b *testing.B, tc *testContext) {
		va, _ := benchVectors(tc)
		ct := tc.encrypt(b, va)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, err := tc.eval.RotateLeft(ct, 1)
			if err != nil {
				b.Fatal(err)
			}
			tc.eval.Recycle(out)
		}
	})
}

// BenchmarkRotateHoisted measures an 8-rotation hoisted batch on the same
// parameters as BenchmarkRotate; hoisting pays when ns/op here is well under
// 8x BenchmarkRotate's.
func BenchmarkRotateHoisted(b *testing.B) {
	ks := []int{1, 2, 3, 4, 5, 6, 7, 8}
	benchKeySwitch(b, ks, func(b *testing.B, tc *testContext) {
		va, _ := benchVectors(tc)
		ct := tc.encrypt(b, va)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, err := tc.eval.RotateHoisted(ct, ks, nil)
			if err != nil {
				b.Fatal(err)
			}
			for _, rot := range out {
				tc.eval.Recycle(rot)
			}
		}
	})
}

// BenchmarkKeyGeneration generates a secret and a full-depth relinearization
// key: the switching key is ⌈L/α⌉ samples over L+α limbs, so it shrinks with
// the digit size. The rotations=8 case generates the eight rotation keys of
// Sobel on the production-size chain (α = 1): rotation keys are the bulk of
// an application's key generation.
func BenchmarkKeyGeneration(b *testing.B) {
	benchKeySwitch(b, nil, func(b *testing.B, tc *testContext) {
		prng := NewTestPRNG(1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			kg := NewKeyGenerator(tc.params, prng)
			sk := kg.GenSecretKey()
			if _, err := kg.GenRelinearizationKey(sk, tc.params.MaxLevel()); err != nil {
				b.Fatal(err)
			}
		}
	})
	chain := keySwitchBenchChains[1]
	b.Run(chain.name+"/rotations=8", func(b *testing.B) {
		tc := newTestContextSpecials(b, chain.logN, chain.logQi, []int{60}, 1<<40, nil)
		steps := []int{1, 2, 64, 65, 66, 128, 129, 130} // Sobel's taps on a 64-wide image
		kg := NewKeyGenerator(tc.params, NewTestPRNG(1))
		sk := kg.GenSecretKey()
		levels := fullLevels(tc.params, steps)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := kg.GenRotationKeys(sk, levels); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkNewParameters builds a parameter set from its literal — primes,
// 2N-th roots, NTT tables and key-switch tables — at the shapes the compiler
// picks for the serving benchmark's program and for SqueezeNet-CIFAR in its
// bench (N=2^10) and paper-scale (N=2^16) configurations: the part of a
// context's set-up that comes before key generation.
func BenchmarkNewParameters(b *testing.B) {
	squeezeNet := append([]int{20}, slices.Repeat([]int{60}, 15)...)
	for _, shape := range []struct {
		name  string
		logN  int
		logQi []int
		logPi []int
	}{
		{"serve_jobs/N=1024x2+1", 10, []int{60, 60}, []int{60}},
		{"nn_infer/N=1024x16+4", 10, squeezeNet, []int{60, 60, 60, 60}},
		{"squeezenet/N=65536x16+4", 16, squeezeNet, []int{60, 60, 60, 60}},
	} {
		b.Run(shape.name, func(b *testing.B) {
			lit := ParametersLiteral{LogN: shape.logN, LogQi: shape.logQi, LogPi: shape.logPi, Scale: 1 << 40, AllowInsecure: true}
			for i := 0; i < b.N; i++ {
				if _, err := NewParameters(lit); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
