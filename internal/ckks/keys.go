package ckks

import (
	"fmt"
	"slices"

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
}

// SwitchingKey re-encrypts, under the owner's secret s, a "foreign" secret s'
// (either s² for relinearization or a rotated copy of s for rotations). It
// holds one RLWE sample per decomposition digit — a group of α consecutive
// chain primes, α being the number of special primes — over the chain primes
// (BQ/AQ) and the special primes (BP/AP), all in NTT form. Digit j's sample
// carries P·s' in the chain limbs of digit j and nothing elsewhere, which
// does not depend on the level: a key switch at a lower level uses the first
// ⌈(level+1)/α⌉ digits and the limbs of the primes still alive. The
// generator draws the digits' randomness in one fixed order and computes
// the samples on the ring workers, so a key depends only on the PRNG and the
// order of the Gen calls, never on the worker count.
type SwitchingKey struct {
	BQ []*ring.Poly
	AQ []*ring.Poly
	BP []*ring.Poly
	AP []*ring.Poly
}

// Validate checks that the switching key is well-shaped for the parameter
// set: ⌈(L+1)/α⌉ digits, every digit carrying L+1 chain limbs and α special
// limbs of length N, in NTT form, with every coefficient reduced below its
// limb's prime. Keys deserialized from untrusted sources
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
	check := func(j int, what string, p *ring.Poly, r *ring.Ring) error {
		limbs := len(r.Moduli)
		if p == nil || len(p.Coeffs) != limbs {
			return fmt.Errorf("ckks: switching-key digit %d %s polynomial is malformed (want %d limbs; %d extended limbs per digit)",
				j, what, limbs, params.MaxLevel()+1+params.DigitSize())
		}
		if !p.IsNTT {
			return fmt.Errorf("ckks: switching-key digit %d %s polynomial is not in NTT form", j, what)
		}
		for i, limb := range p.Coeffs {
			if len(limb) != n {
				return fmt.Errorf("ckks: switching-key digit %d has a limb of %d coefficients; ring degree is %d", j, len(limb), n)
			}
			if err := checkReduced(limb, r.Moduli[i].Q); err != nil {
				return fmt.Errorf("ckks: switching-key digit %d %s polynomial limb %d: %w", j, what, i, err)
			}
		}
		return nil
	}
	rq, rp := params.RingQ(), params.RingP()
	for j := 0; j < digits; j++ {
		for _, c := range []struct {
			what string
			p    *ring.Poly
			r    *ring.Ring
		}{{"chain BQ", swk.BQ[j], rq}, {"chain AQ", swk.AQ[j], rq}, {"special BP", swk.BP[j], rp}, {"special AP", swk.AP[j], rp}} {
			if err := check(j, c.what, c.p, c.r); err != nil {
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
	params := kg.params
	r := params.RingQ()
	sk := &SecretKey{}
	sk.Value = kg.sampler.signedToPoly(r, signed, params.MaxLevel())
	r.NTT(sk.Value)
	if rp := params.RingP(); rp != nil {
		sk.ValueP = kg.sampler.signedToPoly(rp, signed, rp.MaxLevel())
		rp.NTT(sk.ValueP)
	}
	return sk
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
	return &RelinearizationKey{Key: kg.genSwitchingKeys(sk, []*ring.Poly{s2})[0]}, nil
}

// GenRotationKeys generates Galois switching keys for the given rotation
// steps (positive = left rotation, negative = right), one per distinct Galois
// element in step order. Each key's foreign secret s(X^g) is the NTT-domain
// slot permutation of s, and all the keys come from one genSwitchingKeys
// call, so their digits share the ring workers.
func (kg *KeyGenerator) GenRotationKeys(steps []int, sk *SecretKey) (*RotationKeySet, error) {
	if kg.params.RingP() == nil {
		return nil, fmt.Errorf("ckks: parameters have no special prime; rotation keys unavailable")
	}
	params := kg.params
	r := params.RingQ()
	var galEls []uint64
	var sPrimes []*ring.Poly
	for _, k := range steps {
		galEl := params.GaloisElementForRotation(k)
		if slices.Contains(galEls, galEl) {
			continue
		}
		sRot := r.NewPoly(params.MaxLevel())
		r.AutomorphismNTT(sk.Value, galEl, sRot)
		galEls = append(galEls, galEl)
		sPrimes = append(sPrimes, sRot)
	}
	set := &RotationKeySet{Keys: make(map[uint64]*SwitchingKey, len(galEls))}
	for i, swk := range kg.genSwitchingKeys(sk, sPrimes) {
		set.Keys[galEls[i]] = swk
	}
	return set, nil
}

// genSwitchingKeys builds one switching key per foreign secret in sPrimes
// (NTT form, full level), each encrypting its s' under sk: one RLWE sample
// per digit over the extended basis {q_0..q_L, p_0..p_{α-1}}, with P·s' added
// into the chain limbs of the digit's own primes. (The gadget factor
// P·(Q/Q_j)·[(Q/Q_j)^-1]_{Q_j} is P modulo the primes of digit j and 0
// modulo every other chain prime, at every level — which is why one key
// serves all levels.)
//
// The caller draws every digit's aQ, aP and Gaussian error in key order,
// then digit order, exactly as one sequential loop would; the arithmetic on
// those draws (reducing the error over both bases, the NTTs, −a·s+e and P·s')
// runs on the ring workers while later digits are drawn. The keys are
// therefore byte-identical to the sequential order's for the same PRNG.
func (kg *KeyGenerator) genSwitchingKeys(sk *SecretKey, sPrimes []*ring.Poly) []*SwitchingKey {
	params := kg.params
	r, rp := params.RingQ(), params.RingP()
	level, levelP := params.MaxLevel(), rp.MaxLevel()
	alpha := params.DigitSize()
	digits := params.Digits(level)
	keys := make([]*SwitchingKey, len(sPrimes))
	for k := range keys {
		keys[k] = &SwitchingKey{
			BQ: make([]*ring.Poly, digits),
			AQ: make([]*ring.Poly, digits),
			BP: make([]*ring.Poly, digits),
			AP: make([]*ring.Poly, digits),
		}
	}
	// s is the fixed operand of every digit's a·s: its Shoup quotients, built
	// once here, make each of those products a Shoup multiplication.
	sShoup, sShoupP := shoupTable(r, sk.Value), shoupTable(rp, sk.ValueP)
	errs := make([][]int64, len(keys)*digits) // each digit's Gaussian draw, until its arithmetic takes it
	ring.Pipeline(len(errs), func(t int) {
		swk, j := keys[t/digits], t%digits
		swk.AQ[j] = kg.sampler.uniform(r, level)
		swk.AP[j] = kg.sampler.uniform(rp, levelP)
		errs[t] = kg.sampler.gaussianSigned()
	}, func(t int) {
		k, j := t/digits, t%digits
		swk, e := keys[k], errs[t]
		errs[t] = nil
		// (bQ, bP) = -a·s + e over the chain and the special primes, and P·s'
		// in the limbs of digit j's primes only.
		bQ, bP := r.NewPoly(level), rp.NewPoly(levelP)
		first, last := j*alpha, min((j+1)*alpha, level+1)
		// Limb-parallel only while the pool has free slots (a lone digit);
		// inside a Pipeline helper the pool is saturated and this runs inline.
		ring.Parallel(level+1+levelP+1, func(i int) {
			if i > level {
				i -= level + 1
				rlweLimb(rp.Moduli[i], e, swk.AP[j].Coeffs[i], sk.ValueP.Coeffs[i], sShoupP[i], bP.Coeffs[i])
				return
			}
			rlweLimb(r.Moduli[i], e, swk.AQ[j].Coeffs[i], sk.Value.Coeffs[i], sShoup[i], bQ.Coeffs[i])
			if i >= first && i < last {
				qi := r.Moduli[i].Q
				pModQ := params.specialProductMod(qi)
				w := numth.ShoupPrecomp(pModQ, qi)
				bi, si := bQ.Coeffs[i], sPrimes[k].Coeffs[i]
				for x := range bi {
					bi[x] = numth.AddMod(bi[x], numth.MulModShoup(si[x], pModQ, w, qi), qi)
				}
			}
		})
		bQ.IsNTT, bP.IsNTT = true, true
		swk.BQ[j], swk.BP[j] = bQ, bP
	})
	return keys
}

// rlweLimb writes one limb of an RLWE sample's b = −a·s + e (NTT domain):
// the signed error e reduced modulo m and transformed, minus a·s — by Shoup
// multiplication when sShoup holds s's Shoup quotients, by Barrett reduction
// when it is nil (a fresh encryption, where building the quotients would
// cost more than they save). Both give the exact residue.
func rlweLimb(m *ring.Modulus, e []int64, a, s, sShoup, b []uint64) {
	q, br := m.Q, m.Barrett()
	for t, c := range e {
		b[t] = reduceSigned(c, q)
	}
	m.NTT(b)
	if sShoup == nil {
		for t := range b {
			b[t] = numth.SubMod(b[t], br.MulMod(a[t], s[t]), q)
		}
		return
	}
	a, s, sShoup = a[:len(b)], s[:len(b)], sShoup[:len(b)]
	for t := range b {
		b[t] = numth.SubMod(b[t], numth.MulModShoup(a[t], s[t], sShoup[t], q), q)
	}
}

// shoupTable returns the Shoup quotient of every coefficient of p, a
// polynomial of r, limb by limb on the ring workers.
func shoupTable(r *ring.Ring, p *ring.Poly) [][]uint64 {
	out := make([][]uint64, len(p.Coeffs))
	ring.Parallel(len(out), func(i int) {
		q := r.Moduli[i].Q
		out[i] = make([]uint64, len(p.Coeffs[i]))
		for t, c := range p.Coeffs[i] {
			out[i][t] = numth.ShoupPrecomp(c, q)
		}
	})
	return out
}
