package ckks

import "eva/internal/ring"

// Copies and accessors only the tests use.

// CopyNew returns a deep copy of the ciphertext.
func (ct *Ciphertext) CopyNew() *Ciphertext {
	out := &Ciphertext{Value: make([]*ring.Poly, len(ct.Value)), Scale: ct.Scale, Level: ct.Level}
	for i := range ct.Value {
		out.Value[i] = ct.Value[i].CopyNew()
	}
	if ct.Deferred() {
		out.ValueP = make([]*ring.Poly, len(ct.ValueP))
		for i := range ct.ValueP {
			out.ValueP[i] = ct.ValueP[i].CopyNew()
		}
	}
	return out
}

// CopyNew returns a deep copy of the plaintext.
func (p *Plaintext) CopyNew() *Plaintext {
	out := &Plaintext{Value: p.Value.CopyNew(), Scale: p.Scale, Level: p.Level}
	if p.ValueP != nil {
		out.ValueP = p.ValueP.CopyNew()
	}
	return out
}

// RotateRight rotates slots right by k positions.
func (ev *Evaluator) RotateRight(a *Ciphertext, k int) (*Ciphertext, error) {
	return ev.RotateLeft(a, -k)
}

// Qi returns the chain primes (consumption order: last element dropped first).
func (p *Parameters) Qi() []uint64 { return append([]uint64(nil), p.qi...) }

// LogQi returns the requested bit sizes of the chain primes.
func (p *Parameters) LogQi() []int { return append([]int(nil), p.logQi...) }

// SpecialPrimes returns the key-switching special primes (empty if none).
func (p *Parameters) SpecialPrimes() []uint64 { return append([]uint64(nil), p.pi...) }

// DefaultScale returns the default encoding scale.
func (p *Parameters) DefaultScale() float64 { return p.scale }

// QAtLevel returns the product of the chain primes up to the given level as a
// float64 (used for noise-budget style diagnostics only).
func (p *Parameters) QAtLevel(level int) float64 {
	q := 1.0
	for i := 0; i <= level && i < len(p.qi); i++ {
		q *= float64(p.qi[i])
	}
	return q
}
