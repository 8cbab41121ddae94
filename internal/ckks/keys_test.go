package ckks

import (
	"fmt"
	"math"
	"math/big"
	"testing"

	"eva/internal/numth"
	"eva/internal/ring"
)

// sequentialSwitchingKey is the original one-loop switching-key generator,
// kept unchanged as the oracle of genSwitchingKeys: every digit's draws, its
// NTTs and its arithmetic run in turn on the caller.
func sequentialSwitchingKey(kg *KeyGenerator, sk *SecretKey, sPrime *ring.Poly) *SwitchingKey {
	params := kg.params
	r, rp := params.RingQ(), params.RingP()
	level, levelP := params.MaxLevel(), rp.MaxLevel()
	alpha := params.DigitSize()
	digits := params.Digits(level)
	swk := &SwitchingKey{
		BQ: make([]*ring.Poly, digits),
		AQ: make([]*ring.Poly, digits),
		BP: make([]*ring.Poly, digits),
		AP: make([]*ring.Poly, digits),
	}
	for j := 0; j < digits; j++ {
		aQ := kg.sampler.uniform(r, level)
		aP := kg.sampler.uniform(rp, levelP)
		eSigned := kg.sampler.gaussianSigned()
		eQ := kg.sampler.signedToPoly(r, eSigned, level)
		r.NTT(eQ)
		eP := kg.sampler.signedToPoly(rp, eSigned, levelP)
		rp.NTT(eP)

		// (bQ, bP) = -a·s + e over the chain and the special primes.
		bQ := r.NewPoly(level)
		r.MulCoeffs(aQ, sk.Value, bQ)
		r.Neg(bQ, bQ)
		r.Add(bQ, eQ, bQ)
		bP := rp.NewPoly(levelP)
		rp.MulCoeffs(aP, sk.ValueP, bP)
		rp.Neg(bP, bP)
		rp.Add(bP, eP, bP)
		// Add P·s' into the limbs of digit j's primes only.
		for i := j * alpha; i < min((j+1)*alpha, level+1); i++ {
			qi := r.Moduli[i].Q
			pModQ := params.specialProductMod(qi)
			w := numth.ShoupPrecomp(pModQ, qi)
			bi, si := bQ.Coeffs[i], sPrime.Coeffs[i]
			for t := range bi {
				bi[t] = numth.AddMod(bi[t], numth.MulModShoup(si[t], pModQ, w, qi), qi)
			}
		}
		swk.BQ[j], swk.AQ[j], swk.BP[j], swk.AP[j] = bQ, aQ, bP, aP
	}
	return swk
}

// sequentialRotationKeys is the original rotation-key loop: each rotated
// secret goes through the coefficient domain, and each key is generated in
// full before the next one's draws begin.
func sequentialRotationKeys(kg *KeyGenerator, steps []int, sk *SecretKey) map[uint64]*SwitchingKey {
	params := kg.params
	r := params.RingQ()
	keys := make(map[uint64]*SwitchingKey, len(steps))
	for _, k := range steps {
		galEl := params.GaloisElementForRotation(k)
		if _, done := keys[galEl]; done {
			continue
		}
		sCoeff := sk.Value.CopyNew()
		r.InvNTT(sCoeff)
		sRot := r.NewPoly(params.MaxLevel())
		r.Automorphism(sCoeff, galEl, sRot)
		r.NTT(sRot)
		keys[galEl] = sequentialSwitchingKey(kg, sk, sRot)
	}
	return keys
}

func sameSwitchingKey(a, b *SwitchingKey) error {
	if len(a.BQ) != len(b.BQ) {
		return fmt.Errorf("%d digits, want %d", len(a.BQ), len(b.BQ))
	}
	for j := range a.BQ {
		for _, pair := range []struct {
			name string
			x, y *ring.Poly
		}{{"BQ", a.BQ[j], b.BQ[j]}, {"AQ", a.AQ[j], b.AQ[j]}, {"BP", a.BP[j], b.BP[j]}, {"AP", a.AP[j], b.AP[j]}} {
			if !pair.x.Equal(pair.y) {
				return fmt.Errorf("digit %d %s differs", j, pair.name)
			}
		}
	}
	return nil
}

// TestKeyGenMatchesSequential pins the pipelined key generator against the
// sequential oracle: for one seed, the relinearization key and every rotation
// key must be byte-identical, whatever the worker count.
func TestKeyGenMatchesSequential(t *testing.T) {
	// Steps with negatives and with duplicates both literal (1, 1) and modulo
	// the slot count (1 and slots+1, -1 and slots-1).
	steps := func(slots int) []int { return []int{1, -1, 3, 1, slots + 1, slots - 1, -8, 64} }
	cases := []struct {
		name  string
		logN  int
		logQi []int
		logPi []int
	}{
		{"N=2^10/alpha=1", 10, []int{50, 40, 40, 40, 40, 40, 40, 40}, []int{60}},
		{"N=2^10/alpha=3", 10, []int{50, 40, 40, 40, 40, 40, 40, 40}, []int{60, 60, 60}},
		{"N=2^13/alpha=1", 13, []int{60, 40, 40, 40}, []int{60}},
		{"N=2^13/alpha=2", 13, []int{60, 40, 40, 40}, []int{60, 60}},
		{"N=2^14/alpha=1", 14, []int{60, 60, 60, 60, 60}, []int{60}},
	}
	for _, workers := range []int{1, 2} {
		for _, c := range cases {
			t.Run(fmt.Sprintf("workers=%d/%s", workers, c.name), func(t *testing.T) {
				ring.SetWorkers(workers)
				t.Cleanup(func() { ring.SetWorkers(0) })
				params, err := NewParameters(ParametersLiteral{LogN: c.logN, LogQi: c.logQi, LogPi: c.logPi, Scale: 1 << 40, AllowInsecure: true})
				if err != nil {
					t.Fatal(err)
				}
				st := steps(params.Slots())

				kg := NewKeyGenerator(params, NewTestPRNG(5))
				sk := kg.GenSecretKey()
				rlk, err := kg.GenRelinearizationKey(sk)
				if err != nil {
					t.Fatal(err)
				}
				rtk, err := kg.GenRotationKeys(st, sk)
				if err != nil {
					t.Fatal(err)
				}

				oracle := NewKeyGenerator(params, NewTestPRNG(5))
				osk := oracle.GenSecretKey()
				r := params.RingQ()
				s2 := r.NewPoly(params.MaxLevel())
				r.MulCoeffs(osk.Value, osk.Value, s2)
				if err := sameSwitchingKey(rlk.Key, sequentialSwitchingKey(oracle, osk, s2)); err != nil {
					t.Fatalf("relinearization key: %v", err)
				}
				want := sequentialRotationKeys(oracle, st, osk)
				if len(rtk.Keys) != len(want) {
					t.Fatalf("%d rotation keys, want %d", len(rtk.Keys), len(want))
				}
				for galEl, w := range want {
					got, ok := rtk.Keys[galEl]
					if !ok {
						t.Fatalf("no rotation key for Galois element %d", galEl)
					}
					if err := sameSwitchingKey(got, w); err != nil {
						t.Fatalf("rotation key %d: %v", galEl, err)
					}
				}
			})
		}
	}
}

// TestReduceSigned checks reduceSigned against big.Int's Euclidean modulus
// at the edges: zero, the units, q's neighbours, negative multiples of q and
// the int64 extremes.
func TestReduceSigned(t *testing.T) {
	for _, q := range []uint64{97, 1<<40 + 7, 1<<60 - 93} {
		qi := int64(q)
		for _, c := range []int64{0, 1, -1, qi - 1, -(qi - 1), qi, -qi, qi + 1, -(qi + 1), -3 * qi, math.MinInt64, math.MaxInt64} {
			want := new(big.Int).Mod(big.NewInt(c), new(big.Int).SetUint64(q)).Uint64()
			if got := reduceSigned(c, q); got != want {
				t.Errorf("reduceSigned(%d, %d) = %d, want %d", c, q, got, want)
			}
		}
	}
}
