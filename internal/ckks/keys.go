package ckks

import (
	"fmt"

	"eva/internal/numth"
	"eva/internal/ring"
)

// SecretKey is the RLWE secret: a ternary polynomial stored in NTT form over
// the full chain (Value) and over the special primes (ValueP, nil when the
// parameter set has none), the latter being required when generating
// switching keys.
type SecretKey struct {
	Value  *ring.Poly
	ValueP *ring.Poly
	signed []int64 // the raw ternary coefficients, kept to derive rotated secrets
}

// PublicKey is a (b, a) = (-a*s + e, a) RLWE sample in NTT form at the top level.
type PublicKey struct {
	B *ring.Poly
	A *ring.Poly
}

// SwitchingKey re-encrypts, under the owner's secret s, a "foreign" secret s'
// (either s² for relinearization or a rotated copy of s for rotations). It
// holds one RLWE sample per decomposition digit — a group of α consecutive
// chain primes, α being the number of special primes — over the chain primes
// (BQ/AQ) and the special primes (BP/AP), all in NTT form. Digit j's sample
// carries P·s' in the chain limbs of digit j and nothing elsewhere, which
// does not depend on the level: a key switch at a lower level uses the first
// ⌈(level+1)/α⌉ digits and the limbs of the primes still alive.
type SwitchingKey struct {
	BQ []*ring.Poly
	AQ []*ring.Poly
	BP []*ring.Poly
	AP []*ring.Poly
}

// Validate checks that the switching key is well-shaped for the parameter
// set: ⌈(L+1)/α⌉ digits, every digit carrying L+1 chain limbs and α special
// limbs of length N, in NTT form. Keys deserialized from untrusted sources
// must pass this check before use — the key-switching kernels assume
// well-shaped operands.
func (swk *SwitchingKey) Validate(params *Parameters) error {
	if params.DigitSize() == 0 {
		return fmt.Errorf("ckks: parameters have no special primes; switching keys are unusable")
	}
	digits := params.Digits(params.MaxLevel())
	if len(swk.BQ) != digits || len(swk.AQ) != digits || len(swk.BP) != digits || len(swk.AP) != digits {
		return fmt.Errorf("ckks: switching key has %d/%d/%d/%d digits; want %d (%d chain primes in digits of %d)",
			len(swk.BQ), len(swk.AQ), len(swk.BP), len(swk.AP), digits, params.MaxLevel()+1, params.DigitSize())
	}
	n := params.N()
	check := func(j int, what string, p *ring.Poly, limbs int) error {
		if p == nil || len(p.Coeffs) != limbs {
			return fmt.Errorf("ckks: switching-key digit %d %s polynomial is malformed (want %d limbs; %d extended limbs per digit)",
				j, what, limbs, params.MaxLevel()+1+params.DigitSize())
		}
		if !p.IsNTT {
			return fmt.Errorf("ckks: switching-key digit %d %s polynomial is not in NTT form", j, what)
		}
		for _, limb := range p.Coeffs {
			if len(limb) != n {
				return fmt.Errorf("ckks: switching-key digit %d has a limb of %d coefficients; ring degree is %d", j, len(limb), n)
			}
		}
		return nil
	}
	for j := 0; j < digits; j++ {
		for _, p := range []*ring.Poly{swk.BQ[j], swk.AQ[j]} {
			if err := check(j, "chain", p, params.MaxLevel()+1); err != nil {
				return err
			}
		}
		for _, p := range []*ring.Poly{swk.BP[j], swk.AP[j]} {
			if err := check(j, "special", p, params.DigitSize()); err != nil {
				return err
			}
		}
	}
	return nil
}

// RelinearizationKey holds the switching key for s².
type RelinearizationKey struct {
	Key *SwitchingKey
}

// RotationKeySet maps Galois elements to their switching keys. One key per
// distinct rotation step is required, exactly as the paper describes.
type RotationKeySet struct {
	Keys map[uint64]*SwitchingKey
}

// KeyGenerator produces all key material for a parameter set.
type KeyGenerator struct {
	params  *Parameters
	sampler *sampler
}

// NewKeyGenerator returns a key generator; prng may be nil to use a secure default.
func NewKeyGenerator(params *Parameters, prng *PRNG) *KeyGenerator {
	return &KeyGenerator{params: params, sampler: newSampler(params, prng)}
}

// GenSecretKey samples a fresh ternary secret key.
func (kg *KeyGenerator) GenSecretKey() *SecretKey {
	signed := kg.sampler.ternarySigned()
	return kg.secretFromSigned(signed)
}

func (kg *KeyGenerator) secretFromSigned(signed []int64) *SecretKey {
	params := kg.params
	r := params.RingQ()
	sk := &SecretKey{signed: signed}
	sk.Value = kg.sampler.signedToPoly(r, signed, params.MaxLevel())
	r.NTT(sk.Value)
	if rp := params.RingP(); rp != nil {
		sk.ValueP = kg.sampler.signedToPoly(rp, signed, rp.MaxLevel())
		rp.NTT(sk.ValueP)
	}
	return sk
}

// GenPublicKey derives a public key from the secret key.
func (kg *KeyGenerator) GenPublicKey(sk *SecretKey) *PublicKey {
	params := kg.params
	r := params.RingQ()
	level := params.MaxLevel()
	a := kg.sampler.uniform(r, level)
	e := kg.sampler.signedToPoly(r, kg.sampler.gaussianSigned(), level)
	r.NTT(e)
	b := r.NewPoly(level)
	r.MulCoeffs(a, sk.Value, b)
	r.Neg(b, b)
	r.Add(b, e, b)
	return &PublicKey{B: b, A: a}
}

// GenRelinearizationKey generates the switching key for s², enabling
// RELINEARIZE of degree-2 ciphertexts back to degree 1.
func (kg *KeyGenerator) GenRelinearizationKey(sk *SecretKey) (*RelinearizationKey, error) {
	if kg.params.RingP() == nil {
		return nil, fmt.Errorf("ckks: parameters have no special prime; relinearization keys unavailable")
	}
	r := kg.params.RingQ()
	s2 := r.NewPoly(kg.params.MaxLevel())
	r.MulCoeffs(sk.Value, sk.Value, s2) // NTT domain: s², consistent across limbs since s is tiny
	swk := kg.genSwitchingKey(sk, s2)
	return &RelinearizationKey{Key: swk}, nil
}

// GenRotationKeys generates Galois switching keys for the given rotation
// steps (positive = left rotation, negative = right).
func (kg *KeyGenerator) GenRotationKeys(steps []int, sk *SecretKey) (*RotationKeySet, error) {
	if kg.params.RingP() == nil {
		return nil, fmt.Errorf("ckks: parameters have no special prime; rotation keys unavailable")
	}
	params := kg.params
	r := params.RingQ()
	set := &RotationKeySet{Keys: make(map[uint64]*SwitchingKey, len(steps))}
	for _, k := range steps {
		galEl := params.GaloisElementForRotation(k)
		if _, done := set.Keys[galEl]; done {
			continue
		}
		// s' = s(X^galEl): permute the secret in coefficient domain.
		sCoeff := sk.Value.CopyNew()
		r.InvNTT(sCoeff)
		sRot := r.NewPoly(params.MaxLevel())
		r.Automorphism(sCoeff, galEl, sRot)
		r.NTT(sRot)
		set.Keys[galEl] = kg.genSwitchingKey(sk, sRot)
	}
	return set, nil
}

// genSwitchingKey builds a switching key encrypting sPrime (NTT form, full
// level) under sk: one RLWE sample per digit over the extended basis
// {q_0..q_L, p_0..p_{α-1}}, with P·s' added into the chain limbs of the
// digit's own primes. (The gadget factor P·(Q/Q_j)·[(Q/Q_j)^-1]_{Q_j} is P
// modulo the primes of digit j and 0 modulo every other chain prime, at every
// level — which is why one key serves all levels.)
func (kg *KeyGenerator) genSwitchingKey(sk *SecretKey, sPrime *ring.Poly) *SwitchingKey {
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
