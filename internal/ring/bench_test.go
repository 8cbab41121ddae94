package ring

import (
	"testing"

	"eva/internal/numth"
)

func benchRing(b *testing.B, logN, limbs int) *Ring {
	b.Helper()
	primes, err := numth.GenerateNTTPrimes(55, logN, limbs, nil)
	if err != nil {
		b.Fatal(err)
	}
	r, err := NewRing(logN, primes)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

func benchPoly(r *Ring, level int) *Poly {
	p := r.NewPoly(level)
	for i := range p.Coeffs {
		q := r.Moduli[i].Q
		for j := range p.Coeffs[i] {
			p.Coeffs[i][j] = (uint64(j)*2862933555777941757 + 3037000493) % q
		}
	}
	return p
}

func BenchmarkNTTForward(b *testing.B) {
	for _, logN := range []int{12, 13, 14} {
		r := benchRing(b, logN, 1)
		p := benchPoly(r, 0)
		b.Run(sizeName(logN), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r.Moduli[0].NTT(p.Coeffs[0])
			}
		})
	}
}

// BenchmarkNTTReference measures the retained Div64-based oracle transform,
// so the speedup of the Shoup/lazy-reduction fast path stays visible in every
// benchmark run instead of living only in this PR's description.
func BenchmarkNTTReference(b *testing.B) {
	for _, logN := range []int{12} {
		r := benchRing(b, logN, 1)
		p := benchPoly(r, 0)
		b.Run(sizeName(logN), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r.Moduli[0].nttReference(p.Coeffs[0])
			}
		})
	}
}

func BenchmarkNTTInverse(b *testing.B) {
	for _, logN := range []int{12, 13, 14} {
		r := benchRing(b, logN, 1)
		p := benchPoly(r, 0)
		b.Run(sizeName(logN), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r.Moduli[0].InvNTT(p.Coeffs[0])
			}
		})
	}
}

func BenchmarkMulCoeffs(b *testing.B) {
	r := benchRing(b, 13, 4)
	x := benchPoly(r, 3)
	y := benchPoly(r, 3)
	x.IsNTT, y.IsNTT = true, true
	out := r.NewPoly(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.MulCoeffs(x, y, out)
	}
}

func BenchmarkDivideByLastModulusNTT(b *testing.B) {
	r := benchRing(b, 13, 4)
	x := benchPoly(r, 3)
	x.IsNTT = true
	out := r.NewPoly(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.DivideByLastModulusNTT(x, out)
	}
}

func BenchmarkAutomorphism(b *testing.B) {
	r := benchRing(b, 13, 4)
	x := benchPoly(r, 3)
	out := r.NewPoly(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Automorphism(x, 5, out)
	}
}

// BenchmarkAutomorphismNTT measures the NTT-domain slot permutation that
// replaces the InvNTT+Automorphism+NTT round trip on the rotation path.
func BenchmarkAutomorphismNTT(b *testing.B) {
	r := benchRing(b, 13, 4)
	x := benchPoly(r, 3)
	x.IsNTT = true
	out := r.NewPoly(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.AutomorphismNTT(x, 5, out)
	}
}

func sizeName(logN int) string {
	return map[int]string{12: "N=4096", 13: "N=8192", 14: "N=16384"}[logN]
}

// BenchmarkBasisConvert measures the hybrid key switch's mod-up kernel in the
// three shapes the tracked chains give it: a digit of 4 primes lifted to the
// 16 other limbs of a 16+4-limb extended basis on a small ring, a digit of 2
// lifted to the 5 others of a 5+2-limb basis on a production-size ring, and
// the one-prime digit (α = 1, every application at 128-bit) lifted to the 5
// others of a 5+1-limb basis. Each converted limb is also forward-transformed,
// as in the key switch.
func BenchmarkBasisConvert(b *testing.B) {
	for _, shape := range []struct {
		name            string
		logN, src, rest int
	}{{"N=1024/4to16", 10, 4, 16}, {"N=16384/2to5", 14, 2, 5}, {"N=16384/1to5", 14, 1, 5}} {
		r := benchRing(b, shape.logN, shape.src+shape.rest)
		bc, err := NewBasisConverter(r.Moduli[:shape.src], r.Moduli[shape.src:])
		if err != nil {
			b.Fatal(err)
		}
		digit := benchPoly(r, shape.src-1)
		out := r.NewPoly(shape.rest - 1)
		b.Run(shape.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bc.ConvertNTT(digit.Coeffs, out.Coeffs)
			}
		})
	}
}
