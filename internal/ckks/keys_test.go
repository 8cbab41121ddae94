package ckks

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"math/big"
	"slices"
	"strings"
	"testing"

	"eva/internal/numth"
	"eva/internal/ring"
)

// fullLevels maps the Galois element of every step to MaxLevel: the
// full-depth key set of the steps.
func fullLevels(params *Parameters, steps []int) map[uint64]int {
	levels := make(map[uint64]int, len(steps))
	for _, k := range steps {
		levels[params.GaloisElementForRotation(k)] = params.MaxLevel()
	}
	return levels
}

// sequentialSwitchingKey is the switching-key generator written as one loop
// on the caller, the oracle of genSwitchingKeys: it draws the seed of every
// digit of a full-depth key from the generator's stream as four
// little-endian words, then, for each digit the level needs, expands the
// digit's seed into its Gaussian error, the special limbs of a and the chain
// limbs 0..level of a, and computes the sample with whole-polynomial ring
// operations.
func sequentialSwitchingKey(kg *KeyGenerator, sk *SecretKey, sPrime *ring.Poly, level int) *SwitchingKey {
	params := kg.params
	r, rp := params.RingQ(), params.RingP()
	levelP := rp.MaxLevel()
	alpha := params.DigitSize()
	seeds := make([][32]byte, params.Digits(params.MaxLevel()))
	for j := range seeds {
		for w := 0; w < 4; w++ {
			binary.LittleEndian.PutUint64(seeds[j][8*w:], kg.sampler.prng.Uint64())
		}
	}
	digits := params.Digits(level)
	swk := &SwitchingKey{
		BQ: make([]*ring.Poly, digits),
		AQ: make([]*ring.Poly, digits),
		BP: make([]*ring.Poly, digits),
		AP: make([]*ring.Poly, digits),
	}
	for j := 0; j < digits; j++ {
		stream := newSampler(params, newPRNG(seeds[j]))
		eSigned := stream.gaussianSigned()
		aP := stream.uniform(rp, levelP)
		aQ := stream.uniform(r, level)
		eQ := stream.signedToPoly(r, eSigned, level)
		r.NTT(eQ)
		eP := stream.signedToPoly(rp, eSigned, levelP)
		rp.NTT(eP)

		// (bQ, bP) = -a·s + e over the chain and the special primes.
		s := &ring.Poly{Coeffs: sk.Value.Coeffs[:level+1], IsNTT: true}
		bQ := r.NewPoly(level)
		r.MulCoeffs(aQ, s, bQ)
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

// sequentialRotationKeys is the sequential rotation-key loop: keys in
// ascending Galois-element order, each rotated secret through the
// coefficient domain, and each key generated in full before the next one's
// seeds are drawn.
func sequentialRotationKeys(kg *KeyGenerator, levels map[uint64]int, sk *SecretKey) map[uint64]*SwitchingKey {
	params := kg.params
	r := params.RingQ()
	keys := make(map[uint64]*SwitchingKey, len(levels))
	for _, galEl := range slices.Sorted(maps.Keys(levels)) {
		sCoeff := sk.Value.CopyNew()
		r.InvNTT(sCoeff)
		sRot := r.NewPoly(params.MaxLevel())
		r.Automorphism(sCoeff, galEl, sRot)
		r.NTT(sRot)
		keys[galEl] = sequentialSwitchingKey(kg, sk, sRot, levels[galEl])
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

// truncated is the full-depth key cut to level: its first ⌈(level+1)/α⌉
// digits, each with its first level+1 chain limbs.
func truncated(params *Parameters, full *SwitchingKey, level int) *SwitchingKey {
	digits := params.Digits(level)
	cut := &SwitchingKey{BP: full.BP[:digits], AP: full.AP[:digits]}
	for j := 0; j < digits; j++ {
		cut.BQ = append(cut.BQ, &ring.Poly{Coeffs: full.BQ[j].Coeffs[:level+1], IsNTT: true})
		cut.AQ = append(cut.AQ, &ring.Poly{Coeffs: full.AQ[j].Coeffs[:level+1], IsNTT: true})
	}
	return cut
}

// TestKeyGenMatchesSequential pins the parallel key generator against the
// sequential oracle: for one seed, the relinearization key and every rotation
// key must be byte-identical, whatever the worker count, and so must the
// stream the generator leaves behind. A key generated at any level is the
// full-depth key cut to that level, and generating it leaves the stream
// where the full-depth key does.
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
				top := params.MaxLevel()
				// The rotation keys at mixed levels: 0, the top, and between.
				levels := fullLevels(params, steps(params.Slots()))
				for i, galEl := range slices.Sorted(maps.Keys(levels)) {
					levels[galEl] = i % (top + 1)
				}

				kg := NewKeyGenerator(params, NewTestPRNG(5))
				sk := kg.GenSecretKey()
				rlk, err := kg.GenRelinearizationKey(sk, top)
				if err != nil {
					t.Fatal(err)
				}
				rtk, err := kg.GenRotationKeys(sk, levels)
				if err != nil {
					t.Fatal(err)
				}

				oracle := NewKeyGenerator(params, NewTestPRNG(5))
				osk := oracle.GenSecretKey()
				r := params.RingQ()
				s2 := r.NewPoly(top)
				r.MulCoeffs(osk.Value, osk.Value, s2)
				if err := sameSwitchingKey(rlk.Key, sequentialSwitchingKey(oracle, osk, s2, top)); err != nil {
					t.Fatalf("relinearization key: %v", err)
				}
				want := sequentialRotationKeys(oracle, levels, osk)
				if len(rtk.Keys) != len(want) {
					t.Fatalf("%d rotation keys, want %d", len(rtk.Keys), len(want))
				}
				for galEl, w := range want {
					got, ok := rtk.Keys[galEl]
					if !ok {
						t.Fatalf("no rotation key for Galois element %d", galEl)
					}
					if err := sameSwitchingKey(got, w); err != nil {
						t.Fatalf("rotation key %d at level %d: %v", galEl, levels[galEl], err)
					}
				}
				if kg.sampler.prng.Uint64() != oracle.sampler.prng.Uint64() {
					t.Fatal("the generator and the oracle leave the stream in different places")
				}

				// Truncation: the relinearization key at every level is the
				// prefix of the full-depth one, and the stream after it does
				// not move.
				fullGen := NewKeyGenerator(params, NewTestPRNG(9))
				full, err := fullGen.GenRelinearizationKey(fullGen.GenSecretKey(), top)
				if err != nil {
					t.Fatal(err)
				}
				after := fullGen.sampler.prng.Uint64()
				for level := 0; level <= top; level++ {
					g := NewKeyGenerator(params, NewTestPRNG(9))
					cut, err := g.GenRelinearizationKey(g.GenSecretKey(), level)
					if err != nil {
						t.Fatal(err)
					}
					if err := sameSwitchingKey(cut.Key, truncated(params, full.Key, level)); err != nil {
						t.Fatalf("relinearization key at level %d is not the full key's prefix: %v", level, err)
					}
					if g.sampler.prng.Uint64() != after {
						t.Fatalf("a key at level %d moved the stream after it", level)
					}
				}
			})
		}
	}
}

// TestKeyGenRefusesBadLevels: a key level outside the chain and an element
// that is not a Galois element of the ring are errors, not panics.
func TestKeyGenRefusesBadLevels(t *testing.T) {
	params := testParams(t, 10, []int{50, 40, 40}, 60, 1<<40)
	kg := NewKeyGenerator(params, NewTestPRNG(1))
	sk := kg.GenSecretKey()
	for _, level := range []int{-1, params.MaxLevel() + 1} {
		if _, err := kg.GenRelinearizationKey(sk, level); err == nil {
			t.Errorf("relinearization key at level %d generated", level)
		}
		if _, err := kg.GenRotationKeys(sk, map[uint64]int{5: level}); err == nil {
			t.Errorf("rotation key at level %d generated", level)
		}
	}
	if _, err := kg.GenRotationKeys(sk, map[uint64]int{4: 0}); err == nil {
		t.Error("rotation key for the even element 4 generated")
	}
}

// TestShallowKeyIsRefused: a rotation or relinearization at a level above
// its key's is an error from checkSwitchable, not an index panic in the
// kernels. With digits of two primes, a level-2 key has the two digits a
// level-3 switch decomposes into, but one chain limb too few.
func TestShallowKeyIsRefused(t *testing.T) {
	params, err := NewParameters(ParametersLiteral{LogN: 10, LogQi: []int{50, 40, 40, 40}, LogPi: []int{60, 60}, Scale: 1 << 40, AllowInsecure: true})
	if err != nil {
		t.Fatal(err)
	}
	kg := NewKeyGenerator(params, NewTestPRNG(1))
	sk := kg.GenSecretKey()
	rlk, err := kg.GenRelinearizationKey(sk, 2)
	if err != nil {
		t.Fatal(err)
	}
	rtk, err := kg.GenRotationKeys(sk, map[uint64]int{params.GaloisElementForRotation(1): 2})
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(params, EvaluationKeys{Rlk: rlk, Rtk: rtk})
	enc, ecd := NewEncryptor(params, sk, NewTestPRNG(2)), NewEncoder(params)
	for level := 0; level <= params.MaxLevel(); level++ {
		pt, err := ecd.Encode([]float64{1, 2, 3, 4}, params.DefaultScale(), level)
		if err != nil {
			t.Fatal(err)
		}
		ct, err := enc.Encrypt(pt)
		if err != nil {
			t.Fatal(err)
		}
		_, rotErr := ev.RotateLeft(ct, 1)
		sq, err := ev.Mul(ct, ct)
		if err != nil {
			t.Fatal(err)
		}
		_, relinErr := ev.Relinearize(sq)
		for what, err := range map[string]error{"rotation": rotErr, "relinearization": relinErr} {
			switch {
			case level <= 2 && err != nil:
				t.Errorf("%s at level %d with a level-2 key: %v", what, level, err)
			case level > 2 && (err == nil || !strings.Contains(err.Error(), "3 chain limbs, need 4")):
				t.Errorf("%s at level %d with a level-2 key: error %v, want a chain-limb refusal", what, level, err)
			}
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
