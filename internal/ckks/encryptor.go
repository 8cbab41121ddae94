package ckks

import (
	"fmt"
)

// Encryptor encrypts plaintexts under a public key.
type Encryptor struct {
	params  *Parameters
	pk      *PublicKey
	sampler *sampler
}

// NewEncryptor returns an encryptor for the given public key; prng may be nil
// to use a secure default.
func NewEncryptor(params *Parameters, pk *PublicKey, prng *PRNG) *Encryptor {
	return &Encryptor{params: params, pk: pk, sampler: newSampler(params, prng)}
}

// Encrypt produces a fresh degree-1 ciphertext of the plaintext:
// (b·u + e0 + m, a·u + e1).
func (enc *Encryptor) Encrypt(pt *Plaintext) (*Ciphertext, error) {
	if pt == nil || pt.Value == nil {
		return nil, fmt.Errorf("ckks: encrypting nil plaintext")
	}
	if !pt.Value.IsNTT {
		return nil, fmt.Errorf("ckks: plaintext must be in NTT form")
	}
	params := enc.params
	r := params.RingQ()
	level := pt.Level

	u := enc.sampler.signedToPoly(r, enc.sampler.ternarySigned(), level)
	r.NTT(u)
	e0 := enc.sampler.signedToPoly(r, enc.sampler.gaussianSigned(), level)
	r.NTT(e0)
	e1 := enc.sampler.signedToPoly(r, enc.sampler.gaussianSigned(), level)
	r.NTT(e1)

	ct := NewCiphertext(params, 2, level, pt.Scale)
	r.MulCoeffs(enc.pk.B, u, ct.Value[0])
	r.Add(ct.Value[0], e0, ct.Value[0])
	r.Add(ct.Value[0], pt.Value, ct.Value[0])
	r.MulCoeffs(enc.pk.A, u, ct.Value[1])
	r.Add(ct.Value[1], e1, ct.Value[1])
	return ct, nil
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
