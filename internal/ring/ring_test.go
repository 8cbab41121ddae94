package ring

import (
	"math/big"
	"math/rand"
	"testing"

	"eva/internal/numth"
)

func testRing(t *testing.T, logN, nPrimes int) *Ring {
	t.Helper()
	primes, err := numth.GenerateNTTPrimes(45, logN, nPrimes, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRing(logN, primes)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func randPoly(r *Ring, level int, seed int64) *Poly {
	rng := rand.New(rand.NewSource(seed))
	p := r.NewPoly(level)
	for i := range p.Coeffs {
		q := r.Moduli[i].Q
		for j := range p.Coeffs[i] {
			p.Coeffs[i][j] = rng.Uint64() % q
		}
	}
	return p
}

func TestNewRingErrors(t *testing.T) {
	if _, err := NewRing(1, []uint64{65537}); err == nil {
		t.Error("expected error for logN out of range")
	}
	if _, err := NewRing(12, nil); err == nil {
		t.Error("expected error for empty modulus chain")
	}
	primes, _ := numth.GenerateNTTPrimes(40, 12, 1, nil)
	if _, err := NewRing(12, []uint64{primes[0], primes[0]}); err == nil {
		t.Error("expected error for duplicate modulus")
	}
	if _, err := NewRing(12, []uint64{7}); err == nil {
		t.Error("expected error for non-NTT prime")
	}
}

// TestNewModulusTablesMatchDirectPowers pins the twiddle tables NewModulus
// builds by Shoup steps and by the ψ^n = −1 symmetry against the direct
// construction: ψ^i and ψ^−i by repeated MulMod, in bit-reversed order, each
// with its own Shoup quotient.
func TestNewModulusTablesMatchDirectPowers(t *testing.T) {
	for _, logN := range []int{2, 3, 10, 13} {
		for _, bitSize := range []int{30, 45, 61} {
			primes, err := numth.GenerateNTTPrimes(bitSize, logN, 2, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range primes {
				m, err := NewModulus(q, logN)
				if err != nil {
					t.Fatal(err)
				}
				psi, err := numth.PrimitiveNthRoot(2<<logN, q)
				if err != nil {
					t.Fatal(err)
				}
				psiInv := numth.MustInvMod(psi, q)
				n := 1 << logN
				fwd, inv := make([]uint64, n), make([]uint64, n)
				fwd[0], inv[0] = 1, 1
				for i := 1; i < n; i++ {
					fwd[i] = numth.MulMod(fwd[i-1], psi, q)
					inv[i] = numth.MulMod(inv[i-1], psiInv, q)
				}
				for i := 0; i < n; i++ {
					r := numth.BitReverse(uint64(i), uint64(logN))
					if m.psiPows[i] != fwd[r] || m.psiShoup[i] != numth.ShoupPrecomp(fwd[r], q) {
						t.Fatalf("q=%d logN=%d: forward twiddle %d differs", q, logN, i)
					}
					if m.psiInv[i] != inv[r] || m.psiInvShoup[i] != numth.ShoupPrecomp(inv[r], q) {
						t.Fatalf("q=%d logN=%d: inverse twiddle %d differs", q, logN, i)
					}
				}
			}
		}
	}
}

func TestNTTRoundTrip(t *testing.T) {
	r := testRing(t, 10, 3)
	p := randPoly(r, 2, 7)
	orig := p.CopyNew()
	r.NTT(p)
	if !p.IsNTT {
		t.Fatal("IsNTT not set")
	}
	r.InvNTT(p)
	if !p.Equal(orig) {
		t.Fatal("NTT/InvNTT round trip changed the polynomial")
	}
}

// schoolbookNegacyclic multiplies two coefficient vectors modulo X^N+1 and q.
func schoolbookNegacyclic(a, b []uint64, q uint64) []uint64 {
	n := len(a)
	out := make([]uint64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			prod := numth.MulMod(a[i], b[j], q)
			k := i + j
			if k < n {
				out[k] = numth.AddMod(out[k], prod, q)
			} else {
				out[k-n] = numth.SubMod(out[k-n], prod, q)
			}
		}
	}
	return out
}

func TestNTTMultiplicationMatchesSchoolbook(t *testing.T) {
	r := testRing(t, 6, 2)
	a := randPoly(r, 1, 1)
	b := randPoly(r, 1, 2)
	want := make([][]uint64, 2)
	for i := 0; i < 2; i++ {
		want[i] = schoolbookNegacyclic(a.Coeffs[i], b.Coeffs[i], r.Moduli[i].Q)
	}
	r.NTT(a)
	r.NTT(b)
	out := r.NewPoly(1)
	r.MulCoeffs(a, b, out)
	r.InvNTT(out)
	for i := 0; i < 2; i++ {
		for j := range want[i] {
			if out.Coeffs[i][j] != want[i][j] {
				t.Fatalf("limb %d coeff %d: got %d want %d", i, j, out.Coeffs[i][j], want[i][j])
			}
		}
	}
}

func TestAddSubNegLinear(t *testing.T) {
	r := testRing(t, 8, 2)
	a := randPoly(r, 1, 3)
	b := randPoly(r, 1, 4)
	sum := r.NewPoly(1)
	diff := r.NewPoly(1)
	neg := r.NewPoly(1)
	r.Add(a, b, sum)
	r.Sub(sum, b, diff)
	if !diff.Equal(a) {
		t.Error("(a+b)-b != a")
	}
	r.Neg(a, neg)
	r.Add(a, neg, sum)
	for i := range sum.Coeffs {
		for j := range sum.Coeffs[i] {
			if sum.Coeffs[i][j] != 0 {
				t.Fatal("a + (-a) != 0")
			}
		}
	}
}

func TestMulCoeffsAndAdd(t *testing.T) {
	r := testRing(t, 7, 2)
	a := randPoly(r, 1, 5)
	b := randPoly(r, 1, 6)
	r.NTT(a)
	r.NTT(b)
	acc := r.NewPoly(1)
	acc.IsNTT = true
	r.MulCoeffsAndAdd(a, b, acc)
	r.MulCoeffsAndAdd(a, b, acc)
	once := r.NewPoly(1)
	r.MulCoeffs(a, b, once)
	twice := r.NewPoly(1)
	r.Add(once, once, twice)
	if !acc.Equal(twice) {
		t.Error("MulCoeffsAndAdd twice != 2*(a*b)")
	}
}

func TestMulScalar(t *testing.T) {
	r := testRing(t, 7, 2)
	a := randPoly(r, 1, 8)
	out := r.NewPoly(1)
	r.MulScalar(a, 3, out)
	sum := r.NewPoly(1)
	r.Add(a, a, sum)
	r.Add(sum, a, sum)
	if !out.Equal(sum) {
		t.Error("3*a != a+a+a")
	}
}

func TestAutomorphismComposition(t *testing.T) {
	r := testRing(t, 6, 1)
	a := randPoly(r, 0, 9)
	// Applying X->X^g1 then X->X^g2 equals X->X^(g1*g2 mod 2N).
	g1, g2 := uint64(5), uint64(9)
	tmp := r.NewPoly(0)
	out1 := r.NewPoly(0)
	r.Automorphism(a, g1, tmp)
	r.Automorphism(tmp, g2, out1)
	out2 := r.NewPoly(0)
	r.Automorphism(a, (g1*g2)%(2*uint64(r.N)), out2)
	if !out1.Equal(out2) {
		t.Error("automorphism composition mismatch")
	}
}

func TestAutomorphismIdentity(t *testing.T) {
	r := testRing(t, 6, 1)
	a := randPoly(r, 0, 10)
	out := r.NewPoly(0)
	r.Automorphism(a, 1, out)
	if !out.Equal(a) {
		t.Error("automorphism with galEl=1 is not the identity")
	}
}

func TestAutomorphismIsRingHomomorphism(t *testing.T) {
	// (a*b) under automorphism == automorphism(a) * automorphism(b)
	r := testRing(t, 6, 1)
	a := randPoly(r, 0, 11)
	b := randPoly(r, 0, 12)
	gal := uint64(5)

	prod := r.NewPoly(0)
	an, bn := a.CopyNew(), b.CopyNew()
	r.NTT(an)
	r.NTT(bn)
	r.MulCoeffs(an, bn, prod)
	r.InvNTT(prod)
	lhs := r.NewPoly(0)
	r.Automorphism(prod, gal, lhs)

	aAuto, bAuto := r.NewPoly(0), r.NewPoly(0)
	r.Automorphism(a, gal, aAuto)
	r.Automorphism(b, gal, bAuto)
	r.NTT(aAuto)
	r.NTT(bAuto)
	rhs := r.NewPoly(0)
	r.MulCoeffs(aAuto, bAuto, rhs)
	r.InvNTT(rhs)

	if !lhs.Equal(rhs) {
		t.Error("automorphism does not commute with multiplication")
	}
}

func TestDivideByLastModulus(t *testing.T) {
	// Construct a polynomial whose big-integer coefficients are known, and
	// check that rescaling divides them (with rounding) by the last prime.
	r := testRing(t, 5, 3)
	qs := make([]*big.Int, 3)
	bigQ := big.NewInt(1)
	for i, m := range r.Moduli {
		qs[i] = new(big.Int).SetUint64(m.Q)
		bigQ.Mul(bigQ, qs[i])
	}
	rng := rand.New(rand.NewSource(13))
	p := r.NewPoly(2)
	values := make([]*big.Int, r.N)
	for j := 0; j < r.N; j++ {
		// Small-ish values (positive and negative) so rounding is observable.
		v := big.NewInt(rng.Int63n(1 << 40))
		if rng.Intn(2) == 0 {
			v.Neg(v)
		}
		values[j] = v
		vm := new(big.Int).Mod(v, bigQ)
		for i, m := range r.Moduli {
			p.Coeffs[i][j] = new(big.Int).Mod(vm, qs[i]).Uint64()
			_ = m
		}
	}
	out := r.NewPoly(1)
	r.divideByLastModulus(p, out)
	if out.Level() != 1 {
		t.Fatalf("level = %d, want 1", out.Level())
	}
	qL := r.Moduli[2].Q
	for j := 0; j < r.N; j++ {
		// Expected: round(v / qL), allow error of 1 from the RNS rounding trick.
		want := new(big.Float).Quo(new(big.Float).SetInt(values[j]), new(big.Float).SetUint64(qL))
		wantInt, _ := want.Int64()
		got := numth.CenteredRem(out.Coeffs[0][j], r.Moduli[0].Q)
		diff := got - wantInt
		if diff < -1 || diff > 1 {
			t.Fatalf("coeff %d: rescaled to %d, want about %d", j, got, wantInt)
		}
	}
}

func TestPolyHelpers(t *testing.T) {
	r := testRing(t, 5, 2)
	p := randPoly(r, 1, 16)
	cp := p.CopyNew()
	if !cp.Equal(p) {
		t.Error("CopyNew not equal to source")
	}
	cp.Coeffs[0][0]++
	if cp.Equal(p) {
		t.Error("mutating copy affected source comparison")
	}
	q := r.NewPoly(1)
	q.Copy(p)
	if !q.Equal(p) {
		t.Error("Copy not equal to source")
	}
	p.Zero()
	for i := range p.Coeffs {
		for j := range p.Coeffs[i] {
			if p.Coeffs[i][j] != 0 {
				t.Fatal("Zero left nonzero coefficient")
			}
		}
	}
}
