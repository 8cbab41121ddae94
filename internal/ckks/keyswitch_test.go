package ckks

import (
	"fmt"
	"math"
	"testing"

	"eva/internal/numth"
	"eva/internal/ring"
)

// noiseBits returns log2 of the largest coefficient of got − want, both
// NTT-form polynomials at one level, read as a centered integer polynomial.
// Key-switch noise is far below any chain prime, so the centered residue of
// limb 0 is the integer itself; every other limb must agree with it, which
// fails loudly if the difference is not small.
func noiseBits(t *testing.T, r *ring.Ring, got, want *ring.Poly) float64 {
	t.Helper()
	diff := r.NewPoly(got.Level())
	r.Sub(got, want, diff)
	r.InvNTT(diff)
	worst := 0.0
	for j := range diff.Coeffs[0] {
		e := numth.CenteredRem(diff.Coeffs[0][j], r.Moduli[0].Q)
		for i := 1; i < len(diff.Coeffs); i++ {
			if numth.CenteredRem(diff.Coeffs[i][j], r.Moduli[i].Q) != e {
				t.Fatalf("coefficient %d: the difference is not a small integer (limb 0 reads %d, limb %d disagrees)", j, e, i)
			}
		}
		worst = math.Max(worst, math.Abs(float64(e)))
	}
	return math.Log2(worst + 1)
}

// TestKeySwitchNoise pins the arithmetic of hybrid key switching for every
// digit size on every level. It measures the noise a key switch adds in the
// ring itself, not through the encoder: the decryption of Relinearize(ct)
// minus the decryption of the degree-2 ct, and the decryption of
// RotateLeft(ct) minus the automorphism of the decryption of ct, as integer
// polynomials. With special primes covering the largest digit that noise is
// the key's error scaled by (digit product)/P plus the rounding of the final
// division — about √N coefficients' worth, whatever the digit size. The test
// requires
//
//   - at most log2(N)+3 bits everywhere (a wrong conversion constant, a digit
//     boundary off by one or a limb taken from the wrong basis shows up as
//     noise the size of the modulus, or trips the small-integer check);
//   - within 1 bit of the per-prime construction (α = 1) on the same chain at
//     the same level, so grouping digits costs no precision.
//
// Chains: six primes of mixed sizes, so α ∈ {2,3,4} leaves a partial last digit
// on some level; and {60,60,30}, whose digits are as large as special primes
// can be.
func TestKeySwitchNoise(t *testing.T) {
	const logN = 11
	chains := [][]int{{50, 40, 45, 40, 40, 40}, {60, 60, 30}}
	for _, logQi := range chains {
		perPrime := map[string]float64{} // "op/level" → bits at α = 1
		// Digit sizes 3 and 6 take the shorter and the longer chain whole.
		for _, alpha := range []int{1, 2, 3, 4, 6} {
			if alpha > len(logQi) {
				continue
			}
			logPi := make([]int, alpha)
			for i := range logPi {
				logPi[i] = 60
			}
			name := fmt.Sprintf("chain=%v/alpha=%d", logQi, alpha)
			tc := newTestContextSpecials(t, logN, logQi, logPi, 1<<40, []int{3})
			if got, want := len(tc.rlk.Key.BQ), (len(logQi)+alpha-1)/alpha; got != want {
				t.Fatalf("%s: relinearization key has %d digits, want %d", name, got, want)
			}
			r := tc.params.RingQ()
			galEl := tc.params.GaloisElementForRotation(3)

			ct := tc.encrypt(t, tc.randomVector(int64(alpha), 1))
			for level := ct.Level; level >= 0; level-- {
				prod, err := tc.eval.Mul(ct, ct)
				if err != nil {
					t.Fatal(err)
				}
				relin, err := tc.eval.Relinearize(prod)
				if err != nil {
					t.Fatalf("%s level %d: %v", name, level, err)
				}
				rot, err := tc.eval.RotateLeft(ct, 3)
				if err != nil {
					t.Fatalf("%s level %d: %v", name, level, err)
				}
				rotated := r.NewPoly(level)
				r.AutomorphismNTT(tc.decr.Decrypt(ct).Value, galEl, rotated)

				for op, bits := range map[string]float64{
					"relinearize": noiseBits(t, r, tc.decr.Decrypt(relin).Value, tc.decr.Decrypt(prod).Value),
					"rotate":      noiseBits(t, r, tc.decr.Decrypt(rot).Value, rotated),
				} {
					key := fmt.Sprintf("%s/level=%d", op, level)
					if bound := float64(logN + 3); bits > bound {
						t.Errorf("%s %s: %.1f bits of key-switch noise, bound %.0f", name, key, bits, bound)
					}
					if alpha == 1 {
						perPrime[key] = bits
					} else if bits > perPrime[key]+1 {
						t.Errorf("%s %s: %.1f bits of key-switch noise, per-prime construction %.1f", name, key, bits, perPrime[key])
					}
				}
				if level > 0 {
					if ct, err = tc.eval.ModSwitch(ct); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
}
