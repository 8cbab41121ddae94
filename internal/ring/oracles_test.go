package ring

import (
	"math/bits"

	"eva/internal/numth"
)

// Ring operations only the tests use, as oracles and fixtures.

// Zero sets every coefficient of p to zero.
func (p *Poly) Zero() {
	for i := range p.Coeffs {
		clear(p.Coeffs[i])
	}
}

// InnerProductAutoNTT computes out = Σ_t φ_galEl(es[t]) ⊙ ks[t] over the
// limbs of out, entirely in the NTT domain: es are the decomposed digits of a
// key switch, ks the matching key digits, and galEl the Galois element whose
// slot permutation is fused into the accumulation (1 for the identity). out
// is fully overwritten. Limbs fan out across the worker pool.
func (r *Ring) InnerProductAutoNTT(es, ks []*Poly, galEl uint64, out *Poly) {
	if len(ks) < len(es) {
		panic("ring: fewer key digits than decomposition digits")
	}
	if len(es) > MaxLazyDigits {
		panic("ring: too many digits for lazy inner-product accumulation")
	}
	if galEl%2 == 0 {
		panic("ring: Galois element must be odd")
	}
	for _, e := range es {
		if !e.IsNTT {
			panic("ring: InnerProductAutoNTT requires NTT-domain digits")
		}
	}
	var idx []uint32
	if galEl != 1 {
		idx = r.automorphismNTTIndex(galEl)
	}
	l := len(out.Coeffs)
	if r.limbsParallel(l) {
		Parallel(l, func(i int) { innerProductLimb(es, ks, i, idx, out.Coeffs[i], r.Moduli[i].br) })
	} else {
		for i := 0; i < l; i++ {
			innerProductLimb(es, ks, i, idx, out.Coeffs[i], r.Moduli[i].br)
		}
	}
	out.IsNTT = true
}

// innerProductLimb gathers limb views of the digit polynomials into
// stack-resident arrays (no heap allocation on the hot path) and runs the
// fused accumulation kernel on them.
func innerProductLimb(es, ks []*Poly, limb int, idx []uint32, acc []uint64, br numth.Barrett) {
	var ebuf, kbuf [MaxLazyDigits][]uint64
	d := len(es)
	for t := 0; t < d; t++ {
		ebuf[t] = es[t].Coeffs[limb]
		kbuf[t] = ks[t].Coeffs[limb]
	}
	InnerProductAutoVec(ebuf[:d], kbuf[:d], idx, acc, br)
}

// MulScalar sets out = a * scalar, where scalar is reduced modulo each limb.
// The scalar is fixed per limb, so each limb uses a Shoup multiplication
// against a quotient computed once per call. Aliasing out with a is safe.
func (r *Ring) MulScalar(a *Poly, scalar uint64, out *Poly) {
	if r.limbsParallel(len(out.Coeffs)) {
		Parallel(len(out.Coeffs), func(i int) { mulScalarLimb(r.Moduli[i].Q, scalar, a.Coeffs[i], out.Coeffs[i]) })
	} else {
		for i := range out.Coeffs {
			mulScalarLimb(r.Moduli[i].Q, scalar, a.Coeffs[i], out.Coeffs[i])
		}
	}
	out.IsNTT = a.IsNTT
}

func mulScalarLimb(q, scalar uint64, ai, oi []uint64) {
	s := scalar % q
	w := numth.ShoupPrecomp(s, q)
	for j := range oi {
		oi[j] = numth.MulModShoup(ai[j], s, w, q)
	}
}

// AddScalar adds an integer scalar to the constant coefficient of a
// coefficient-domain polynomial, or to every slot when in NTT domain.
// Aliasing out with a is safe.
func (r *Ring) AddScalar(a *Poly, scalar uint64, out *Poly) {
	for i := range out.Coeffs {
		q := r.Moduli[i].Q
		s := scalar % q
		ai, oi := a.Coeffs[i], out.Coeffs[i]
		if a.IsNTT {
			for j := range oi {
				oi[j] = numth.AddMod(ai[j], s, q)
			}
		} else {
			copy(oi, ai)
			oi[0] = numth.AddMod(ai[0], s, q)
		}
	}
	out.IsNTT = a.IsNTT
}

// InnerProductAutoVec computes acc[j] = Σ_t es[t][σ(j)]·ks[t][j] mod q, where
// σ is the slot permutation described by idx (nil for the identity; otherwise
// a Ring's cached NTT-slot permutation table). This is the fused hot loop of a hoisted
// key switch: the Galois automorphism is applied as a gather inside the
// accumulation instead of a separate permutation pass per digit, and the
// digit products accumulate lazily in 128 bits with a single Barrett
// reduction per output coefficient instead of one per product. acc is
// overwritten.
func InnerProductAutoVec(es, ks [][]uint64, idx []uint32, acc []uint64, br numth.Barrett) {
	if len(ks) < len(es) {
		panic("ring: fewer key digits than decomposition digits")
	}
	if len(es) > MaxLazyDigits {
		panic("ring: too many digits for lazy inner-product accumulation")
	}
	n := len(acc)
	if idx == nil {
		for j := 0; j < n; j++ {
			var hi, lo, c uint64
			for t := range es {
				ph, pl := bits.Mul64(es[t][j], ks[t][j])
				lo, c = bits.Add64(lo, pl, 0)
				hi += ph + c
			}
			acc[j] = br.Reduce(hi, lo)
		}
	} else {
		for j := 0; j < n; j++ {
			src := idx[j]
			var hi, lo, c uint64
			for t := range es {
				ph, pl := bits.Mul64(es[t][src], ks[t][j])
				lo, c = bits.Add64(lo, pl, 0)
				hi += ph + c
			}
			acc[j] = br.Reduce(hi, lo)
		}
	}
}

// nttReference is the original Div64-based transform, retained as the oracle
// the property tests pin the lazy-reduction NTT against.
func (m *Modulus) nttReference(a []uint64) {
	q := m.Q
	t := m.n
	for mm := 1; mm < m.n; mm <<= 1 {
		t >>= 1
		for i := 0; i < mm; i++ {
			j1 := 2 * i * t
			j2 := j1 + t
			s := m.psiPows[mm+i]
			for j := j1; j < j2; j++ {
				u := a[j]
				v := numth.MulMod(a[j+t], s, q)
				a[j] = numth.AddMod(u, v, q)
				a[j+t] = numth.SubMod(u, v, q)
			}
		}
	}
}

// invNTTReference is the original Div64-based inverse transform (oracle).
func (m *Modulus) invNTTReference(a []uint64) {
	q := m.Q
	t := 1
	for mm := m.n; mm > 1; mm >>= 1 {
		j1 := 0
		h := mm >> 1
		for i := 0; i < h; i++ {
			j2 := j1 + t
			s := m.psiInv[h+i]
			for j := j1; j < j2; j++ {
				u := a[j]
				v := a[j+t]
				a[j] = numth.AddMod(u, v, q)
				a[j+t] = numth.MulMod(numth.SubMod(u, v, q), s, q)
			}
			j1 += 2 * t
		}
		t <<= 1
	}
	for j := range a {
		a[j] = numth.MulMod(a[j], m.nInv, q)
	}
}

// divideByLastModulus is the coefficient-domain rescale, the oracle of
// DivideByLastModulusNTT: p (coefficient domain, level L) divided by q_L with
// rounding into out at level L-1 (every coefficient is overwritten).
func (r *Ring) divideByLastModulus(p, out *Poly) {
	if p.IsNTT {
		panic("ring: divideByLastModulus requires coefficient-domain input")
	}
	level := p.Level()
	if level == 0 {
		panic("ring: cannot rescale below level 0")
	}
	if out.Level() != level-1 {
		panic("ring: divideByLastModulus output must be one level below the input")
	}
	qL := r.Moduli[level].Q
	last := p.Coeffs[level]
	half := qL >> 1
	for i := 0; i <= level-1; i++ {
		r.rescaleLimb(p, out, level, i, last, half, qL)
	}
	out.IsNTT = false
}
