package ckks

import (
	"fmt"

	"eva/internal/ring"
)

// Encryptor encrypts plaintexts under the secret key. In EVA's deployment
// model the party that encrypts is the one that generated the keys, so no
// public key is needed.
type Encryptor struct {
	params  *Parameters
	sk      *SecretKey
	sampler *sampler
}

// NewEncryptor returns an encryptor for the given secret key; prng may be nil
// to use a secure default.
func NewEncryptor(params *Parameters, sk *SecretKey, prng *PRNG) *Encryptor {
	return &Encryptor{params: params, sk: sk, sampler: newSampler(params, prng)}
}

// Encrypt produces a fresh degree-1 ciphertext of the plaintext,
// (−a·s + e + m, a) with a uniform at the plaintext's level: its only noise
// is the Gaussian e.
func (enc *Encryptor) Encrypt(pt *Plaintext) (*Ciphertext, error) {
	if pt == nil || pt.Value == nil {
		return nil, fmt.Errorf("ckks: encrypting nil plaintext")
	}
	if !pt.Value.IsNTT {
		return nil, fmt.Errorf("ckks: plaintext must be in NTT form")
	}
	r := enc.params.RingQ()
	level := pt.Level
	a := enc.sampler.uniform(r, level)
	e := enc.sampler.gaussianSigned()
	b := r.NewPoly(level)
	ring.Parallel(level+1, func(i int) { rlweLimb(r.Moduli[i], e, a.Coeffs[i], enc.sk.Value.Coeffs[i], nil, b.Coeffs[i]) })
	b.IsNTT = true
	r.Add(b, pt.Value, b)
	return &Ciphertext{Value: []*ring.Poly{b, a}, Scale: pt.Scale, Level: level}, nil
}

// Decryptor decrypts ciphertexts with the secret key.
type Decryptor struct {
	params *Parameters
	sk     *SecretKey
}

// NewDecryptor returns a decryptor for the given secret key.
func NewDecryptor(params *Parameters, sk *SecretKey) *Decryptor {
	return &Decryptor{params: params, sk: sk}
}

// Decrypt evaluates c0 + c1·s (+ c2·s² for unrelinearized ciphertexts) and
// returns the resulting plaintext at the ciphertext's scale and level. Only
// the result (and s² for a degree-2 ciphertext) is allocated: the secret key
// is read in place.
func (dec *Decryptor) Decrypt(ct *Ciphertext) *Plaintext {
	r := dec.params.RingQ()
	acc := ct.Value[0].CopyNew()
	power := dec.sk.Value
	for i := 1; i < len(ct.Value); i++ {
		if i > 1 {
			next := r.NewPoly(ct.Level)
			r.MulCoeffs(power, dec.sk.Value, next)
			power = next
		}
		r.MulCoeffsAndAdd(ct.Value[i], power, acc)
	}
	return &Plaintext{Value: acc, Scale: ct.Scale, Level: ct.Level}
}
