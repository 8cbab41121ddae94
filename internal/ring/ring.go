// Package ring implements arithmetic in the cyclotomic quotient rings
// R_q = Z_q[X]/(X^N + 1) used by the RNS-CKKS scheme, with the coefficient
// modulus represented in residue number system (RNS) form as a chain of
// NTT-friendly primes. It provides the negacyclic number-theoretic transform
// (NTT), element-wise ring operations, Galois automorphisms (used for slot
// rotations) in both coefficient and NTT domain, and RNS rescaling (division
// by the last chain prime).
//
// The hot paths avoid hardware division entirely: the NTT butterflies use
// Shoup multiplication against precomputed twiddle quotients with lazy
// reduction (values ride in [0,4q) forward / [0,2q) inverse, with one final
// reduction pass), and the element-wise multiplies use Barrett reduction.
// The Div64-based reference transforms are retained (unexported) as oracles
// for the property tests.
package ring

import (
	"fmt"
	"math/bits"
	"sync"

	"eva/internal/numth"
)

// Modulus bundles one RNS prime together with the precomputed tables needed
// for the negacyclic NTT of length N modulo that prime: the twiddle factors
// in bit-reversed order, their Shoup quotients, and the Barrett constant.
type Modulus struct {
	Q           uint64        // the prime
	n           int           // transform length
	logN        int           // log2(n)
	br          numth.Barrett // Barrett constant for Q
	psiPows     []uint64      // psi^brv(i): powers of the 2N-th root of unity in bit-reversed order
	psiShoup    []uint64      // Shoup quotients of psiPows
	psiInv      []uint64      // psiInv^brv(i)
	psiInvShoup []uint64      // Shoup quotients of psiInv
	nInv        uint64        // N^{-1} mod Q
	nInvShoup   uint64        // Shoup quotient of nInv
	// psiInvNInv is psiInv^brv(1)·N^{-1} mod Q, the last inverse stage's
	// twiddle with the final scaling folded in; psiInvNInvShoup its Shoup
	// quotient.
	psiInvNInv      uint64
	psiInvNInvShoup uint64
}

// NewModulus precomputes the NTT tables for prime q and transform length
// n = 2^logN. q must satisfy q ≡ 1 (mod 2n).
func NewModulus(q uint64, logN int) (*Modulus, error) {
	n := 1 << uint(logN)
	if q%(2*uint64(n)) != 1 {
		return nil, fmt.Errorf("ring: prime %d is not 1 mod 2N for N=%d", q, n)
	}
	psi, err := numth.PrimitiveNthRoot(2*uint64(n), q)
	if err != nil {
		return nil, fmt.Errorf("ring: finding 2N-th root modulo %d: %w", q, err)
	}
	m := &Modulus{
		Q:           q,
		n:           n,
		logN:        logN,
		br:          numth.NewBarrett(q),
		psiPows:     make([]uint64, n),
		psiShoup:    make([]uint64, n),
		psiInv:      make([]uint64, n),
		psiInvShoup: make([]uint64, n),
		nInv:        numth.MustInvMod(uint64(n), q),
	}
	m.nInvShoup = numth.ShoupPrecomp(m.nInv, q)
	// ψ^i for i < n by Shoup products by ψ (exact, so the same residues as
	// any other multiplication), with their Shoup quotients. The inverse
	// powers need no products of their own: ψ^n = −1 makes ψ^−i = q − ψ^(n−i)
	// for 0 < i < n, and the Shoup quotient of q − s is the complement of
	// s's, floor((q−s)·2^64/q) = 2^64 − 1 − floor(s·2^64/q) for 0 < s < q.
	pows, powsShoup := make([]uint64, n), make([]uint64, n)
	psiShoup := numth.ShoupPrecomp(psi, q)
	pows[0] = 1
	for i := 1; i < n; i++ {
		pows[i] = numth.MulModShoup(pows[i-1], psi, psiShoup, q)
	}
	for i, p := range pows {
		powsShoup[i] = numth.ShoupPrecomp(p, q)
	}
	// Tables in bit-reversed order, as required by the CT/GS butterflies below.
	for i := 0; i < n; i++ {
		r := numth.BitReverse(uint64(i), uint64(logN))
		m.psiPows[i], m.psiShoup[i] = pows[r], powsShoup[r]
		if r == 0 {
			m.psiInv[i], m.psiInvShoup[i] = 1, powsShoup[0]
		} else {
			m.psiInv[i], m.psiInvShoup[i] = q-pows[uint64(n)-r], ^powsShoup[uint64(n)-r]
		}
	}
	m.psiInvNInv = numth.MulMod(m.psiInv[1], m.nInv, q)
	m.psiInvNInvShoup = numth.ShoupPrecomp(m.psiInvNInv, q)
	return m, nil
}

// Barrett returns the precomputed Barrett constant for Q, for callers (such
// as the CKKS key switch) that run element-wise loops modulo this prime.
func (m *Modulus) Barrett() numth.Barrett { return m.br }

// NTT transforms a (length N, coefficient representation, values reduced
// modulo m.Q) into the negacyclic NTT domain in place. The output is fully
// reduced to [0, Q).
//
// The butterflies are the lazy-reduction Cooley-Tukey form (ctButterfly):
// values ride in [0, 4q), the twiddle product is a Shoup multiplication into
// [0, 2q), and the last pass reduces everything to [0, q). This removes every
// hardware division from the transform. The stages run two per sweep over
// the array (radix 4: each group of four values takes its two butterflies of
// one stage and its two of the next while in registers), after a lone first
// stage when the count is odd, and the last two stages (strides 2 and 1) run
// with the final reduction as one pass over blocks of four. Every butterfly
// sees the operands the stage-by-stage order gives it, so the output is the
// same.
func (m *Modulus) NTT(a []uint64) {
	q, n := m.Q, m.n
	twoQ := q << 1
	a = a[:n]
	mm, t := 1, n>>1 // the next stage: mm blocks of 2t values
	if m.logN%2 == 1 {
		s, sh := m.psiPows[1], m.psiShoup[1]
		x, y := a[:t], a[t : 2*t][:t]
		for j := range x {
			x[j], y[j] = ctButterfly(x[j], y[j], s, sh, q, twoQ)
		}
		mm, t = 2, t>>1
	}
	for ; t >= 8; mm, t = mm<<2, t>>2 {
		h := t >> 1
		for i := 0; i < mm; i++ {
			s, sh := m.psiPows[mm+i], m.psiShoup[mm+i]
			s1, sh1 := m.psiPows[2*mm+2*i], m.psiShoup[2*mm+2*i]
			s2, sh2 := m.psiPows[2*mm+2*i+1], m.psiShoup[2*mm+2*i+1]
			j1 := 2 * i * t
			x0 := a[j1 : j1+h]
			x1 := a[j1+h : j1+t][:len(x0)]
			x2 := a[j1+t : j1+t+h][:len(x0)]
			x3 := a[j1+t+h : j1+2*t][:len(x0)]
			for k := range x0 {
				u0, u2 := ctButterfly(x0[k], x2[k], s, sh, q, twoQ)
				u1, u3 := ctButterfly(x1[k], x3[k], s, sh, q, twoQ)
				x0[k], x1[k] = ctButterfly(u0, u1, s1, sh1, q, twoQ)
				x2[k], x3[k] = ctButterfly(u2, u3, s2, sh2, q, twoQ)
			}
		}
	}
	// Strides 2 and 1: block b of four takes twiddle ψ[n/4+b] for the first
	// and ψ[n/2+2b], ψ[n/2+2b+1] for the second.
	quarter, half := n>>2, n>>1
	ts, tsh := m.psiPows[quarter:half], m.psiShoup[quarter:half]
	for b, s := range ts {
		v := (*[4]uint64)(a[4*b : 4*b+4])
		w := (*[2]uint64)(m.psiPows[half+2*b : half+2*b+2])
		wh := (*[2]uint64)(m.psiShoup[half+2*b : half+2*b+2])
		sh := tsh[b]
		u0, u2 := ctButterfly(v[0], v[2], s, sh, q, twoQ)
		u1, u3 := ctButterfly(v[1], v[3], s, sh, q, twoQ)
		u0, u1 = ctButterfly(u0, u1, w[0], wh[0], q, twoQ)
		u2, u3 = ctButterfly(u2, u3, w[1], wh[1], q, twoQ)
		v[0], v[1], v[2], v[3] = reduce4q(u0, q, twoQ), reduce4q(u1, q, twoQ), reduce4q(u2, q, twoQ), reduce4q(u3, q, twoQ)
	}
}

// ctButterfly is the lazy Cooley-Tukey butterfly: from x, y in [0, 4q) it
// returns x + ψy and x − ψy, both in [0, 4q), with ψ = s and sh its Shoup
// quotient.
func ctButterfly(x, y, s, sh, q, twoQ uint64) (uint64, uint64) {
	if x >= twoQ {
		x -= twoQ
	}
	v := numth.MulModShoupLazy(y, s, sh, q)
	return x + v, x + twoQ - v
}

// reduce4q reduces x in [0, 4q) to [0, q).
func reduce4q(x, q, twoQ uint64) uint64 {
	if x >= twoQ {
		x -= twoQ
	}
	if x >= q {
		x -= q
	}
	return x
}

// gsButterfly is the lazy Gentleman-Sande butterfly: from x, y in [0, 2q) it
// returns x + y and (x − y)·ψ, both in [0, 2q), with ψ = s and sh its Shoup
// quotient.
func gsButterfly(x, y, s, sh, q, twoQ uint64) (uint64, uint64) {
	w := x + y
	if w >= twoQ {
		w -= twoQ
	}
	return w, numth.MulModShoupLazy(x+twoQ-y, s, sh, q)
}

// InvNTT transforms a from the NTT domain back to coefficient representation
// in place, output fully reduced to [0, Q). It is the lazy Gentleman-Sande
// form (gsButterfly): values ride in [0, 2q). The first two stages (strides 1
// and 2) run as one pass over blocks of four, and the last stage multiplies
// by N^{-1} as it goes — its sums by N^{-1}, its differences by ψ^{-1}·N^{-1},
// both strict Shoup multiplications — so there is no separate scaling pass.
// Each output is the residue the stage-by-stage order with a final scaling
// gives.
func (m *Modulus) InvNTT(a []uint64) {
	q, n := m.Q, m.n
	twoQ := q << 1
	a = a[:n]
	quarter, half := n>>2, n>>1
	ts, tsh := m.psiInv[quarter:half], m.psiInvShoup[quarter:half]
	for b, s := range ts {
		v := (*[4]uint64)(a[4*b : 4*b+4])
		w := (*[2]uint64)(m.psiInv[half+2*b : half+2*b+2])
		wh := (*[2]uint64)(m.psiInvShoup[half+2*b : half+2*b+2])
		sh := tsh[b]
		u0, u1 := gsButterfly(v[0], v[1], w[0], wh[0], q, twoQ)
		u2, u3 := gsButterfly(v[2], v[3], w[1], wh[1], q, twoQ)
		v[0], v[2] = gsButterfly(u0, u2, s, sh, q, twoQ)
		v[1], v[3] = gsButterfly(u1, u3, s, sh, q, twoQ)
	}
	if n == 4 {
		for j := range a {
			a[j] = numth.MulModShoup(a[j], m.nInv, m.nInvShoup, q)
		}
		return
	}
	t := 4
	for mm := quarter; mm > 2; mm >>= 1 {
		j1 := 0
		h := mm >> 1
		for i := 0; i < h; i++ {
			s := m.psiInv[h+i]
			sh := m.psiInvShoup[h+i]
			x := a[j1 : j1+t]
			y := a[j1+t : j1+2*t][:len(x)]
			for j := range x {
				x[j], y[j] = gsButterfly(x[j], y[j], s, sh, q, twoQ)
			}
			j1 += 2 * t
		}
		t <<= 1
	}
	x, y := a[:half], a[half:][:half]
	for j := range x {
		u, v := x[j], y[j]
		w := u + v
		if w >= twoQ {
			w -= twoQ
		}
		x[j] = numth.MulModShoup(w, m.nInv, m.nInvShoup, q)
		y[j] = numth.MulModShoup(u+twoQ-v, m.psiInvNInv, m.psiInvNInvShoup, q)
	}
}

// Ring is the ambient ring R = Z[X]/(X^N+1) with a chain of RNS moduli. A
// polynomial may live at any level L, meaning it carries limbs 0..L of the
// chain (so level 0 means a single prime remains).
type Ring struct {
	N      int
	LogN   int
	Moduli []*Modulus

	// Rescale constants, precomputed so DivideByLastModulusNTT never runs an
	// extended-Euclid inverse on the hot path. Indexed by the level being
	// dropped: for l >= 1 and i < l,
	//   rescaleInv[l][i]      = (q_l mod q_i)^{-1} mod q_i
	//   rescaleInvShoup[l][i] = Shoup quotient of rescaleInv[l][i]
	//   rescaleHalf[l][i]     = (q_l / 2) mod q_i
	rescaleInv      [][]uint64
	rescaleInvShoup [][]uint64
	rescaleHalf     [][]uint64

	// Cache of NTT-domain automorphism permutations keyed by Galois element.
	// The permutation is independent of the limb's prime, so one table
	// serves every level.
	autoMu  sync.RWMutex
	autoIdx map[uint64][]uint32

	// limbScratch recycles one-limb (N-word) scratch buffers, *[]uint64.
	limbScratch sync.Pool
}

// NewRing builds a Ring of degree 2^logN over the given chain of primes.
// The order of primes is the order in which RESCALE consumes them from the
// end of the slice (i.e. primes[len-1] is dropped first).
func NewRing(logN int, primes []uint64) (*Ring, error) {
	if logN < 2 || logN > 17 {
		return nil, fmt.Errorf("ring: logN %d out of supported range [2,17]", logN)
	}
	if len(primes) == 0 {
		return nil, fmt.Errorf("ring: at least one modulus is required")
	}
	r := &Ring{
		N:       1 << uint(logN),
		LogN:    logN,
		Moduli:  make([]*Modulus, len(primes)),
		autoIdx: map[uint64][]uint32{},
	}
	r.limbScratch.New = func() any {
		buf := make([]uint64, r.N)
		return &buf
	}
	seen := map[uint64]bool{}
	for _, q := range primes {
		if seen[q] {
			return nil, fmt.Errorf("ring: duplicate modulus %d", q)
		}
		seen[q] = true
	}
	// Each prime's tables are independent of the others': build them on the
	// ring workers, each into its own slot, and report the first prime's error.
	errs := make([]error, len(primes))
	Parallel(len(primes), func(i int) { r.Moduli[i], errs[i] = NewModulus(primes[i], logN) })
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	r.rescaleInv = make([][]uint64, len(primes))
	r.rescaleInvShoup = make([][]uint64, len(primes))
	r.rescaleHalf = make([][]uint64, len(primes))
	for l := 1; l < len(primes); l++ {
		qL := primes[l]
		half := qL >> 1
		inv := make([]uint64, l)
		invShoup := make([]uint64, l)
		halfMod := make([]uint64, l)
		for i := 0; i < l; i++ {
			qi := primes[i]
			inv[i] = numth.MustInvMod(qL%qi, qi)
			invShoup[i] = numth.ShoupPrecomp(inv[i], qi)
			halfMod[i] = half % qi
		}
		r.rescaleInv[l] = inv
		r.rescaleInvShoup[l] = invShoup
		r.rescaleHalf[l] = halfMod
	}
	return r, nil
}

// MaxLevel is the highest level a polynomial in this ring can have.
func (r *Ring) MaxLevel() int { return len(r.Moduli) - 1 }

// Poly is an RNS polynomial: Coeffs[i][j] is the j-th coefficient modulo the
// i-th chain prime. IsNTT records the current representation.
type Poly struct {
	Coeffs [][]uint64
	IsNTT  bool
}

// NewPoly allocates a zero polynomial at the given level.
func (r *Ring) NewPoly(level int) *Poly {
	if level < 0 || level > r.MaxLevel() {
		panic(fmt.Sprintf("ring: level %d out of range [0,%d]", level, r.MaxLevel()))
	}
	coeffs := make([][]uint64, level+1)
	backing := make([]uint64, (level+1)*r.N)
	for i := range coeffs {
		coeffs[i], backing = backing[:r.N], backing[r.N:]
	}
	return &Poly{Coeffs: coeffs}
}

// Level returns the level (number of limbs minus one) of p.
func (p *Poly) Level() int { return len(p.Coeffs) - 1 }

// CopyNew returns a deep copy of p.
func (p *Poly) CopyNew() *Poly {
	out := &Poly{Coeffs: make([][]uint64, len(p.Coeffs)), IsNTT: p.IsNTT}
	for i := range p.Coeffs {
		out.Coeffs[i] = append([]uint64(nil), p.Coeffs[i]...)
	}
	return out
}

// Copy copies src into p. The levels must match.
func (p *Poly) Copy(src *Poly) {
	if len(p.Coeffs) != len(src.Coeffs) {
		panic("ring: level mismatch in Copy")
	}
	for i := range src.Coeffs {
		copy(p.Coeffs[i], src.Coeffs[i])
	}
	p.IsNTT = src.IsNTT
}

// Equal reports whether p and o have the same level, representation flag and
// coefficients.
func (p *Poly) Equal(o *Poly) bool {
	if p.IsNTT != o.IsNTT || len(p.Coeffs) != len(o.Coeffs) {
		return false
	}
	for i := range p.Coeffs {
		for j := range p.Coeffs[i] {
			if p.Coeffs[i][j] != o.Coeffs[i][j] {
				return false
			}
		}
	}
	return true
}

// NTT converts p to the NTT domain in place (no-op if already there). The
// limbs transform independently, so they fan out across the ring worker pool.
func (r *Ring) NTT(p *Poly) {
	if p.IsNTT {
		return
	}
	if r.limbsParallel(len(p.Coeffs)) {
		Parallel(len(p.Coeffs), func(i int) { r.Moduli[i].NTT(p.Coeffs[i]) })
	} else {
		for i := range p.Coeffs {
			r.Moduli[i].NTT(p.Coeffs[i])
		}
	}
	p.IsNTT = true
}

// InvNTT converts p to coefficient representation in place.
func (r *Ring) InvNTT(p *Poly) {
	if !p.IsNTT {
		return
	}
	if r.limbsParallel(len(p.Coeffs)) {
		Parallel(len(p.Coeffs), func(i int) { r.Moduli[i].InvNTT(p.Coeffs[i]) })
	} else {
		for i := range p.Coeffs {
			r.Moduli[i].InvNTT(p.Coeffs[i])
		}
	}
	p.IsNTT = false
}

func sameShape(a, b, out *Poly) int {
	l := len(a.Coeffs)
	if len(b.Coeffs) < l {
		l = len(b.Coeffs)
	}
	if len(out.Coeffs) < l {
		l = len(out.Coeffs)
	}
	return l
}

// Add sets out = a + b limb-wise (down to the smallest common level).
// Aliasing out with a or b is safe: every slot is read before it is written.
func (r *Ring) Add(a, b, out *Poly) {
	l := sameShape(a, b, out)
	if r.limbsParallel(l) {
		Parallel(l, func(i int) { addLimb(r.Moduli[i].Q, a.Coeffs[i], b.Coeffs[i], out.Coeffs[i]) })
	} else {
		for i := 0; i < l; i++ {
			addLimb(r.Moduli[i].Q, a.Coeffs[i], b.Coeffs[i], out.Coeffs[i])
		}
	}
	out.IsNTT = a.IsNTT
}

func addLimb(q uint64, ai, bi, oi []uint64) {
	for j := range oi {
		oi[j] = numth.AddMod(ai[j], bi[j], q)
	}
}

// Sub sets out = a - b limb-wise. Aliasing out with a or b is safe.
func (r *Ring) Sub(a, b, out *Poly) {
	l := sameShape(a, b, out)
	if r.limbsParallel(l) {
		Parallel(l, func(i int) { subLimb(r.Moduli[i].Q, a.Coeffs[i], b.Coeffs[i], out.Coeffs[i]) })
	} else {
		for i := 0; i < l; i++ {
			subLimb(r.Moduli[i].Q, a.Coeffs[i], b.Coeffs[i], out.Coeffs[i])
		}
	}
	out.IsNTT = a.IsNTT
}

func subLimb(q uint64, ai, bi, oi []uint64) {
	for j := range oi {
		oi[j] = numth.SubMod(ai[j], bi[j], q)
	}
}

// Neg sets out = -a limb-wise. Aliasing out with a is safe.
func (r *Ring) Neg(a, out *Poly) {
	if r.limbsParallel(len(out.Coeffs)) {
		Parallel(len(out.Coeffs), func(i int) { negLimb(r.Moduli[i].Q, a.Coeffs[i], out.Coeffs[i]) })
	} else {
		for i := range out.Coeffs {
			negLimb(r.Moduli[i].Q, a.Coeffs[i], out.Coeffs[i])
		}
	}
	out.IsNTT = a.IsNTT
}

func negLimb(q uint64, ai, oi []uint64) {
	for j := range oi {
		oi[j] = numth.NegMod(ai[j], q)
	}
}

// MulCoeffs sets out = a * b element-wise using Barrett reduction. Both
// operands must be in the NTT domain, in which case this realizes negacyclic
// polynomial multiplication. Aliasing out with a or b is safe.
func (r *Ring) MulCoeffs(a, b, out *Poly) {
	if !a.IsNTT || !b.IsNTT {
		panic("ring: MulCoeffs requires NTT-domain operands")
	}
	l := sameShape(a, b, out)
	if r.limbsParallel(l) {
		Parallel(l, func(i int) { mulLimb(r.Moduli[i].br, a.Coeffs[i], b.Coeffs[i], out.Coeffs[i]) })
	} else {
		for i := 0; i < l; i++ {
			mulLimb(r.Moduli[i].br, a.Coeffs[i], b.Coeffs[i], out.Coeffs[i])
		}
	}
	out.IsNTT = true
}

func mulLimb(br numth.Barrett, ai, bi, oi []uint64) {
	for j := range oi {
		oi[j] = br.MulMod(ai[j], bi[j])
	}
}

// MulCoeffsAndAdd sets out += a * b element-wise (NTT domain, Barrett
// reduction). Aliasing out with a or b is safe. This is the accumulator of
// the key-switch inner product, so each limb goes through the fused unrolled
// kernel MulAddVec.
func (r *Ring) MulCoeffsAndAdd(a, b, out *Poly) {
	if !a.IsNTT || !b.IsNTT {
		panic("ring: MulCoeffsAndAdd requires NTT-domain operands")
	}
	l := sameShape(a, b, out)
	if r.limbsParallel(l) {
		Parallel(l, func(i int) { MulAddVec(a.Coeffs[i], b.Coeffs[i], out.Coeffs[i], r.Moduli[i].br) })
	} else {
		for i := 0; i < l; i++ {
			MulAddVec(a.Coeffs[i], b.Coeffs[i], out.Coeffs[i], r.Moduli[i].br)
		}
	}
	out.IsNTT = true
}

// MulAddVec is the fused multiply-accumulate kernel of the key-switch inner
// product: acc[j] += a[j]*b[j] mod q for every j, with the loop unrolled four
// wide so the three streams advance a cache block at a time and the loop
// control amortizes over four Barrett reductions. It is exported for the CKKS
// layer, whose special-prime limbs are raw slices rather than ring
// polynomials.
func MulAddVec(a, b, acc []uint64, br numth.Barrett) {
	q := br.Q
	n := len(acc)
	if len(a) < n || len(b) < n {
		panic("ring: MulAddVec operand shorter than accumulator")
	}
	a, b = a[:n:n], b[:n:n]
	j := 0
	for ; j+4 <= n; j += 4 {
		p0 := br.MulMod(a[j], b[j])
		p1 := br.MulMod(a[j+1], b[j+1])
		p2 := br.MulMod(a[j+2], b[j+2])
		p3 := br.MulMod(a[j+3], b[j+3])
		acc[j] = numth.AddMod(acc[j], p0, q)
		acc[j+1] = numth.AddMod(acc[j+1], p1, q)
		acc[j+2] = numth.AddMod(acc[j+2], p2, q)
		acc[j+3] = numth.AddMod(acc[j+3], p3, q)
	}
	for ; j < n; j++ {
		acc[j] = numth.AddMod(acc[j], br.MulMod(a[j], b[j]), q)
	}
}

// MaxLazyDigits bounds how many products the 128-bit lazy accumulator of the
// inner-product kernels can sum without overflow: each product of sub-2^60
// residues is below 2^120, so up to 2^8 fit in 128 bits; 64 leaves headroom
// and bounds the kernel's stack-resident limb views. Callers with longer sums
// (the CKKS layer's fused plaintext multiply-accumulate) chunk at this size.
const MaxLazyDigits = 64

// InnerProductAutoVecPair computes, for two key digit sets sharing one
// gather of the decomposed digits, accB[j] = Σ_t es[t][σ(j)]·kbs[t][j] and
// accA[j] = Σ_t es[t][σ(j)]·kas[t][j] mod q, where σ is the slot permutation
// described by idx (nil for the identity; otherwise a Ring's cached NTT-slot
// permutation table). This is the fused hot loop of a hoisted key switch:
// the Galois automorphism is applied as a gather inside the accumulation,
// and the digit products accumulate lazily in 128 bits with one Barrett
// reduction per output coefficient. A key switch always needs both halves of
// the RLWE samples, so pairing halves the digit loads (and the gather
// indirection) of the hottest loop in the backend. accB and accA are
// overwritten.
func InnerProductAutoVecPair(es, kbs, kas [][]uint64, idx []uint32, accB, accA []uint64, br numth.Barrett) {
	if len(kbs) < len(es) || len(kas) < len(es) {
		panic("ring: fewer key digits than decomposition digits")
	}
	if len(es) > MaxLazyDigits {
		panic("ring: too many digits for lazy inner-product accumulation")
	}
	n := len(accB)
	if len(accA) != n {
		panic("ring: paired accumulators must have equal length")
	}
	for j := 0; j < n; j++ {
		src := j
		if idx != nil {
			src = int(idx[j])
		}
		var bhi, blo, ahi, alo, c uint64
		for t := range es {
			e := es[t][src]
			ph, pl := bits.Mul64(e, kbs[t][j])
			blo, c = bits.Add64(blo, pl, 0)
			bhi += ph + c
			ph, pl = bits.Mul64(e, kas[t][j])
			alo, c = bits.Add64(alo, pl, 0)
			ahi += ph + c
		}
		accB[j] = br.Reduce(bhi, blo)
		accA[j] = br.Reduce(ahi, alo)
	}
}

// InnerProductAutoNTTPair computes outB = Σ_t φ_galEl(es[t]) ⊙ kbs[t] and
// outA = Σ_t φ_galEl(es[t]) ⊙ kas[t] over the limbs of outB, entirely in the
// NTT domain: es are the decomposed digits of a key switch, kbs and kas the
// two halves of the matching key digits, and galEl the Galois element whose
// slot permutation is fused into the accumulation (1 for the identity). Each
// digit gather is shared between the two accumulations. outB and outA are
// fully overwritten; limbs fan out across the worker pool.
func (r *Ring) InnerProductAutoNTTPair(es, kbs, kas []*Poly, galEl uint64, outB, outA *Poly) {
	if len(kbs) < len(es) || len(kas) < len(es) {
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
			panic("ring: InnerProductAutoNTTPair requires NTT-domain digits")
		}
	}
	var idx []uint32
	if galEl != 1 {
		idx = r.automorphismNTTIndex(galEl)
	}
	l := len(outB.Coeffs)
	if len(outA.Coeffs) < l {
		l = len(outA.Coeffs)
	}
	if r.limbsParallel(l) {
		Parallel(l, func(i int) {
			innerProductPairLimb(es, kbs, kas, i, idx, outB.Coeffs[i], outA.Coeffs[i], r.Moduli[i].br)
		})
	} else {
		for i := 0; i < l; i++ {
			innerProductPairLimb(es, kbs, kas, i, idx, outB.Coeffs[i], outA.Coeffs[i], r.Moduli[i].br)
		}
	}
	outB.IsNTT, outA.IsNTT = true, true
}

func innerProductPairLimb(es, kbs, kas []*Poly, limb int, idx []uint32, accB, accA []uint64, br numth.Barrett) {
	var ebuf, bbuf, abuf [MaxLazyDigits][]uint64
	d := len(es)
	for t := 0; t < d; t++ {
		ebuf[t] = es[t].Coeffs[limb]
		bbuf[t] = kbs[t].Coeffs[limb]
		abuf[t] = kas[t].Coeffs[limb]
	}
	InnerProductAutoVecPair(ebuf[:d], bbuf[:d], abuf[:d], idx, accB, accA, br)
}

// sharesLimb reports whether a and out alias each other's backing arrays on
// any common limb. Scatter-style operations (the automorphisms) destroy
// their input when run in place, so they refuse aliased operands.
func sharesLimb(a, out *Poly) bool {
	for i := range out.Coeffs {
		if i >= len(a.Coeffs) {
			break
		}
		if len(a.Coeffs[i]) > 0 && len(out.Coeffs[i]) > 0 && &a.Coeffs[i][0] == &out.Coeffs[i][0] {
			return true
		}
	}
	return false
}

// Automorphism applies the Galois automorphism X -> X^galEl to a
// coefficient-domain polynomial. galEl must be odd (an element of (Z/2NZ)^*).
// out must not alias a: the scatter zeroes out first, so an aliased call
// would destroy the input (this is enforced with a panic).
func (r *Ring) Automorphism(a *Poly, galEl uint64, out *Poly) {
	if a.IsNTT {
		panic("ring: Automorphism requires coefficient-domain input")
	}
	if galEl%2 == 0 {
		panic("ring: Galois element must be odd")
	}
	if sharesLimb(a, out) {
		panic("ring: Automorphism does not support aliased input and output")
	}
	n := uint64(r.N)
	mask := 2*n - 1
	if r.limbsParallel(len(out.Coeffs)) {
		Parallel(len(out.Coeffs), func(i int) { automorphismLimb(r.Moduli[i].Q, n, mask, galEl, a.Coeffs[i], out.Coeffs[i]) })
	} else {
		for i := range out.Coeffs {
			automorphismLimb(r.Moduli[i].Q, n, mask, galEl, a.Coeffs[i], out.Coeffs[i])
		}
	}
	out.IsNTT = false
}

func automorphismLimb(q, n, mask, galEl uint64, ai, oi []uint64) {
	for j := range oi {
		oi[j] = 0
	}
	for j := uint64(0); j < n; j++ {
		idx := (j * galEl) & mask
		c := ai[j]
		if idx < n {
			oi[idx] = c
		} else {
			oi[idx-n] = numth.NegMod(c, q)
		}
	}
}

// automorphismNTTIndex returns (building and caching it on first use) the
// slot permutation realizing X -> X^galEl directly on an NTT-domain
// polynomial: out[j] = in[idx[j]]. Slot j of the bit-reversed negacyclic NTT
// holds the evaluation at psi^(2·brv(j)+1), and the automorphism maps the
// evaluation at zeta to the evaluation at zeta^galEl, so
//
//	idx[j] = brv((galEl·(2·brv(j)+1) mod 2N - 1) / 2).
//
// The permutation does not depend on the prime, so one table serves all limbs.
func (r *Ring) automorphismNTTIndex(galEl uint64) []uint32 {
	r.autoMu.RLock()
	idx, ok := r.autoIdx[galEl]
	r.autoMu.RUnlock()
	if ok {
		return idx
	}
	n := uint64(r.N)
	mask := 2*n - 1
	logN := uint64(r.LogN)
	idx = make([]uint32, n)
	for j := uint64(0); j < n; j++ {
		e := (galEl * (2*numth.BitReverse(j, logN) + 1)) & mask
		idx[j] = uint32(numth.BitReverse((e-1)>>1, logN))
	}
	r.autoMu.Lock()
	r.autoIdx[galEl] = idx
	r.autoMu.Unlock()
	return idx
}

// AutomorphismNTT applies the Galois automorphism X -> X^galEl to an
// NTT-domain polynomial as a pure slot permutation, avoiding the
// InvNTT+NTT round trip of the coefficient-domain path. galEl must be odd.
// out must not alias a (enforced with a panic, as for Automorphism).
func (r *Ring) AutomorphismNTT(a *Poly, galEl uint64, out *Poly) {
	if !a.IsNTT {
		panic("ring: AutomorphismNTT requires NTT-domain input")
	}
	if galEl%2 == 0 {
		panic("ring: Galois element must be odd")
	}
	if sharesLimb(a, out) {
		panic("ring: AutomorphismNTT does not support aliased input and output")
	}
	idx := r.automorphismNTTIndex(galEl)
	if r.limbsParallel(len(out.Coeffs)) {
		Parallel(len(out.Coeffs), func(i int) { permuteLimb(idx, a.Coeffs[i], out.Coeffs[i]) })
	} else {
		for i := range out.Coeffs {
			permuteLimb(idx, a.Coeffs[i], out.Coeffs[i])
		}
	}
	out.IsNTT = true
}

func permuteLimb(idx []uint32, ai, oi []uint64) {
	for j := range oi {
		oi[j] = ai[idx[j]]
	}
}

// DivideByLastModulusNTT performs RNS rescaling in the NTT domain: it
// interprets p (NTT form, level L) as an integer polynomial modulo
// Q = q_0*...*q_L, divides it by the last prime q_L with rounding, and writes
// the result at level L-1, in NTT form, into out (every coefficient is
// overwritten). This is the core of the CKKS RESCALE. The rounded division
// (x − [x]_{q_L})·q_L⁻¹ is a per-coefficient linear map modulo each remaining
// prime, so it commutes with the transform: only the dropped limb leaves the
// NTT domain, and its centred residue is transformed forward under each
// remaining prime and subtracted there. The result is bit-identical to the
// coefficient-domain division (divideByLastModulus) between the transforms.
// All per-limb constants are precomputed at ring construction.
func (r *Ring) DivideByLastModulusNTT(p, out *Poly) {
	if !p.IsNTT {
		panic("ring: DivideByLastModulusNTT requires NTT-domain input")
	}
	level := p.Level()
	if level == 0 {
		panic("ring: cannot rescale below level 0")
	}
	if out.Level() != level-1 {
		panic("ring: DivideByLastModulusNTT output must be one level below the input")
	}
	mL := r.Moduli[level]
	buf := r.limbScratch.Get().(*[]uint64)
	last := (*buf)[:r.N]
	copy(last, p.Coeffs[level])
	mL.InvNTT(last)
	// Shifting the last limb by q_L/2 (and each output back by its residue)
	// rounds instead of flooring.
	qL, half := mL.Q, mL.Q>>1
	for j, x := range last {
		last[j] = numth.AddMod(x, half, qL)
	}
	divide := func(i int) {
		m := r.Moduli[i]
		q, br := m.Q, m.br
		halfMod := r.rescaleHalf[level][i]
		qLInv, qLInvShoup := r.rescaleInv[level][i], r.rescaleInvShoup[level][i]
		pi, oi := p.Coeffs[i], out.Coeffs[i]
		for j, x := range last {
			oi[j] = numth.SubMod(br.ReduceWord(x), halfMod, q)
		}
		m.NTT(oi)
		for j := range oi {
			oi[j] = numth.MulModShoup(numth.SubMod(pi[j], oi[j], q), qLInv, qLInvShoup, q)
		}
	}
	if r.limbsParallel(level) {
		Parallel(level, divide)
	} else {
		for i := 0; i < level; i++ {
			divide(i)
		}
	}
	r.limbScratch.Put(buf)
	out.IsNTT = true
}

func (r *Ring) rescaleLimb(p, out *Poly, level, i int, last []uint64, half, qL uint64) {
	q := r.Moduli[i].Q
	br := r.Moduli[i].br
	qLInv := r.rescaleInv[level][i]
	qLInvShoup := r.rescaleInvShoup[level][i]
	halfMod := r.rescaleHalf[level][i]
	pi, oi := p.Coeffs[i], out.Coeffs[i]
	for j := range oi {
		// Rounded division: (x - [x]_{qL} + qL/2 correction) * qL^{-1}.
		// Using the representative of the last limb shifted by qL/2
		// implements rounding instead of flooring.
		lastShift := numth.AddMod(last[j], half, qL) // (x mod qL) + qL/2 mod qL
		tmp := numth.SubMod(pi[j], br.ReduceWord(lastShift), q)
		tmp = numth.AddMod(tmp, halfMod, q)
		oi[j] = numth.MulModShoup(tmp, qLInv, qLInvShoup, q)
	}
}
