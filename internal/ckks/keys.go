package ckks

import (
	"fmt"
	"maps"
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
// does not depend on the level: a key of level ℓ has ⌈(ℓ+1)/α⌉ digits over
// ℓ+1 chain limbs, and a key switch at level ℓ' ≤ ℓ uses its first
// ⌈(ℓ'+1)/α⌉ digits and the limbs of the primes still alive. A key is built
// only as deep as its deepest use (compile.Result.KeyLevels), and it is
// exactly the prefix of the full-depth key drawn from the same PRNG.
type SwitchingKey struct {
	BQ []*ring.Poly
	AQ []*ring.Poly
	BP []*ring.Poly
	AP []*ring.Poly
}

// Validate checks that the switching key is well-shaped for the parameter
// set and reaches level need: a key of level ℓ, need ≤ ℓ ≤ MaxLevel, has
// ⌈(ℓ+1)/α⌉ digits, every digit carrying ℓ+1 chain limbs and α special
// limbs of length N, in NTT form, with every coefficient reduced below its
// limb's prime. Keys deserialized from untrusted sources must pass this
// check before use — the key-switching kernels assume well-shaped operands.
func (swk *SwitchingKey) Validate(params *Parameters, need int) error {
	if params.DigitSize() == 0 {
		return fmt.Errorf("ckks: parameters have no special primes; switching keys are unusable")
	}
	if len(swk.BQ) == 0 || swk.BQ[0] == nil {
		return fmt.Errorf("ckks: switching key has no digits")
	}
	level := len(swk.BQ[0].Coeffs) - 1
	switch {
	case level < need:
		return fmt.Errorf("ckks: switching key reaches level %d; it is used at level %d", level, need)
	case level > params.MaxLevel():
		return fmt.Errorf("ckks: switching key has %d chain limbs; the chain has %d primes", level+1, params.MaxLevel()+1)
	}
	digits := params.Digits(level)
	if len(swk.BQ) != digits || len(swk.AQ) != digits || len(swk.BP) != digits || len(swk.AP) != digits {
		return fmt.Errorf("ckks: switching key has %d/%d/%d/%d digits; want %d (%d chain primes in digits of %d)",
			len(swk.BQ), len(swk.AQ), len(swk.BP), len(swk.AP), digits, level+1, params.DigitSize())
	}
	n := params.N()
	check := func(j int, what string, p *ring.Poly, r *ring.Ring, limbs int) error {
		if p == nil || len(p.Coeffs) != limbs {
			return fmt.Errorf("ckks: switching-key digit %d %s polynomial is malformed (want %d limbs; %d extended limbs per digit)",
				j, what, limbs, level+1+params.DigitSize())
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
			what  string
			p     *ring.Poly
			r     *ring.Ring
			limbs int
		}{{"chain BQ", swk.BQ[j], rq, level + 1}, {"chain AQ", swk.AQ[j], rq, level + 1}, {"special BP", swk.BP[j], rp, params.DigitSize()}, {"special AP", swk.AP[j], rp, params.DigitSize()}} {
			if err := check(j, c.what, c.p, c.r, c.limbs); err != nil {
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

// GenRelinearizationKey generates the switching key for s² at the given
// level, enabling RELINEARIZE of degree-2 ciphertexts back to degree 1 at
// that level and below (MaxLevel for a key that serves every level).
func (kg *KeyGenerator) GenRelinearizationKey(sk *SecretKey, level int) (*RelinearizationKey, error) {
	if kg.params.RingP() == nil {
		return nil, fmt.Errorf("ckks: parameters have no special prime; relinearization keys unavailable")
	}
	if err := kg.checkKeyLevel(level); err != nil {
		return nil, err
	}
	r := kg.params.RingQ()
	s2 := r.NewPoly(level)
	r.MulCoeffs(sk.Value, sk.Value, s2) // NTT domain: s², consistent across limbs since s is tiny
	keys, err := kg.genSwitchingKeys(sk, []*ring.Poly{s2}, []int{level})
	if err != nil {
		return nil, err
	}
	return &RelinearizationKey{Key: keys[0]}, nil
}

// GenRotationKeys generates one Galois switching key per element of levels,
// the key of element g at level levels[g]: the highest level at which the
// program rotates by g (compile.Result.KeyLevels), or MaxLevel for a key
// that serves every level. Each key's foreign secret s(X^g) is the
// NTT-domain slot permutation of s; the keys are drawn in ascending element
// order and come from one genSwitchingKeys call, so their digits share the
// ring workers.
func (kg *KeyGenerator) GenRotationKeys(sk *SecretKey, levels map[uint64]int) (*RotationKeySet, error) {
	params := kg.params
	if params.RingP() == nil {
		return nil, fmt.Errorf("ckks: parameters have no special prime; rotation keys unavailable")
	}
	r := params.RingQ()
	galEls := slices.Sorted(maps.Keys(levels))
	sPrimes := make([]*ring.Poly, len(galEls))
	keyLevels := make([]int, len(galEls))
	for i, galEl := range galEls {
		if galEl%2 == 0 || galEl >= uint64(2*params.N()) {
			return nil, fmt.Errorf("ckks: %d is not a Galois element of the ring", galEl)
		}
		keyLevels[i] = levels[galEl]
		if err := kg.checkKeyLevel(keyLevels[i]); err != nil {
			return nil, err
		}
		sPrimes[i] = r.NewPoly(keyLevels[i])
		r.AutomorphismNTT(sk.Value, galEl, sPrimes[i])
	}
	keys, err := kg.genSwitchingKeys(sk, sPrimes, keyLevels)
	if err != nil {
		return nil, err
	}
	set := &RotationKeySet{Keys: make(map[uint64]*SwitchingKey, len(galEls))}
	for i, swk := range keys {
		set.Keys[galEls[i]] = swk
	}
	return set, nil
}

// checkKeyLevel refuses a switching-key level outside the chain.
func (kg *KeyGenerator) checkKeyLevel(level int) error {
	if level < 0 || level > kg.params.MaxLevel() {
		return fmt.Errorf("ckks: switching-key level %d outside 0..%d", level, kg.params.MaxLevel())
	}
	return nil
}

// genSwitchingKeys builds one switching key per foreign secret in sPrimes
// (NTT form, at least levels[k]+1 limbs), key k at level levels[k] (a level
// checkKeyLevel accepts), each encrypting its s' under sk: one RLWE sample
// per digit over the extended basis {q_0..q_ℓ, p_0..p_{α-1}}, with P·s'
// added into the chain limbs of the digit's own primes. (The gadget factor P·(Q/Q_j)·[(Q/Q_j)^-1]_{Q_j} is P
// modulo the primes of digit j and 0 modulo every other chain prime, at every
// level — which is why a key serves every level up to its own.)
//
// Every key draws one 32-byte seed per digit of a full-depth key from the
// generator's PRNG, in key order and then digit order, whatever its level,
// so the stream that follows does not depend on the levels. Digit j expands
// its own seed as a ChaCha8 stream in a fixed order — the Gaussian error,
// the special limbs of a, then its chain limbs 0..ℓ — so a key of level ℓ is
// exactly the full-depth key cut to its first ⌈(ℓ+1)/α⌉ digits and ℓ+1
// chain limbs. The digits' draws and arithmetic run on the ring workers; a
// key depends only on the PRNG and the order of the Gen calls, never on the
// worker count.
func (kg *KeyGenerator) genSwitchingKeys(sk *SecretKey, sPrimes []*ring.Poly, levels []int) ([]*SwitchingKey, error) {
	params := kg.params
	r, rp := params.RingQ(), params.RingP()
	levelP, alpha := rp.MaxLevel(), params.DigitSize()
	type digit struct {
		key, j int
		seed   [32]byte
	}
	var digits []digit
	keys := make([]*SwitchingKey, len(sPrimes))
	for k, level := range levels {
		n := params.Digits(level)
		keys[k] = &SwitchingKey{
			BQ: make([]*ring.Poly, n),
			AQ: make([]*ring.Poly, n),
			BP: make([]*ring.Poly, n),
			AP: make([]*ring.Poly, n),
		}
		for j := range params.Digits(params.MaxLevel()) {
			if seed := kg.sampler.seed(); j < n {
				digits = append(digits, digit{k, j, seed})
			}
		}
	}
	// s is the fixed operand of every digit's a·s: its Shoup quotients, built
	// once here, make each of those products a Shoup multiplication.
	sShoup, sShoupP := shoupTable(r, sk.Value), shoupTable(rp, sk.ValueP)
	ring.Parallel(len(digits), func(t int) {
		k, j := digits[t].key, digits[t].j
		swk, level := keys[k], levels[k]
		s := newSampler(params, newPRNG(digits[t].seed))
		e := s.gaussianSigned()
		aP := s.uniform(rp, levelP)
		aQ := s.uniform(r, level)
		// (bQ, bP) = -a·s + e over the chain and the special primes, and P·s'
		// in the limbs of digit j's primes only.
		bQ, bP := r.NewPoly(level), rp.NewPoly(levelP)
		first, last := j*alpha, min((j+1)*alpha, level+1)
		// Limb-parallel only while the pool has free slots (a lone digit);
		// inside a helper of the digits' Parallel this runs inline.
		ring.Parallel(level+1+levelP+1, func(i int) {
			if i > level {
				i -= level + 1
				rlweLimb(rp.Moduli[i], e, aP.Coeffs[i], sk.ValueP.Coeffs[i], sShoupP[i], bP.Coeffs[i])
				return
			}
			rlweLimb(r.Moduli[i], e, aQ.Coeffs[i], sk.Value.Coeffs[i], sShoup[i], bQ.Coeffs[i])
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
		swk.BQ[j], swk.AQ[j], swk.BP[j], swk.AP[j] = bQ, aQ, bP, aP
	})
	return keys, nil
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
