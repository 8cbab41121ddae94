package ckks

import (
	"testing"
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

func BenchmarkDecode(b *testing.B) {
	tc := benchContext(b)
	values, _ := benchVectors(tc)
	pt, _ := tc.enc.Encode(values, tc.params.DefaultScale(), tc.params.MaxLevel())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tc.enc.Decode(pt)
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
// sides run allocation-free).
func BenchmarkMulPlainAccumulate(b *testing.B) {
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

func BenchmarkRelinearize(b *testing.B) {
	tc := benchContext(b)
	va, vb := benchVectors(tc)
	prod, err := tc.eval.Mul(tc.encrypt(b, va), tc.encrypt(b, vb))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tc.eval.Relinearize(prod); err != nil {
			b.Fatal(err)
		}
	}
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

// benchRotationContext builds the shared parameter set for the rotation
// benchmarks: N = 2^13 with a deep modulus chain (eight 40-bit scaling primes
// under a 60-bit first prime), the regime EVA's deep circuits — and the
// rotation-heavy matmul/conv kernels riding on them — actually run at. Depth
// matters for the hoisting ratio: the shared decompose half grows
// quadratically with the chain length (digits x limbs transforms) while the
// per-element half stays linear, so shallow chains understate what hoisting
// buys a real workload. Keys for steps 1-8 cover the hoisted batch below.
func benchRotationContext(b *testing.B) *testContext {
	return newTestContext(b, 13, []int{60, 40, 40, 40, 40, 40, 40, 40, 40}, 60, 1<<40,
		[]int{1, 2, 3, 4, 5, 6, 7, 8})
}

func BenchmarkRotate(b *testing.B) {
	tc := benchRotationContext(b)
	va, _ := benchVectors(tc)
	ct := tc.encrypt(b, va)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tc.eval.RotateLeft(ct, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRotateHoisted measures an 8-rotation hoisted batch on the same
// parameters as BenchmarkRotate; the acceptance bar for hoisting is ns/op
// here at less than half of 8x BenchmarkRotate's ns/op.
func BenchmarkRotateHoisted(b *testing.B) {
	tc := benchRotationContext(b)
	va, _ := benchVectors(tc)
	ct := tc.encrypt(b, va)
	ks := []int{1, 2, 3, 4, 5, 6, 7, 8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tc.eval.RotateHoisted(ct, ks); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKeyGeneration(b *testing.B) {
	params := testParams(b, 13, []int{60, 40, 40, 40}, 60, 1<<40)
	prng := NewTestPRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kg := NewKeyGenerator(params, prng)
		sk := kg.GenSecretKey()
		kg.GenPublicKey(sk)
		if _, err := kg.GenRelinearizationKey(sk); err != nil {
			b.Fatal(err)
		}
	}
}
