package ckks

import (
	"fmt"

	"eva/internal/numth"
	"eva/internal/ring"
)

// Key switching is the hybrid (grouped-digit) construction of Han and Ki:
// the chain primes alive at the operand's level are grouped into digits of α
// consecutive primes (α = the number of special primes; the last digit may be
// partial), each digit is lifted to the extended basis {q_0..q_level,
// p_0..p_{α-1}}, the lifted digits are multiplied into the switching key, and
// the sum is divided by P = ∏p_i. A level-ℓ switch costs ⌈(ℓ+1)/α⌉·(ℓ+1+α)
// limb products where per-prime decomposition (α = 1, the degenerate case of
// the same code) costs (ℓ+1)(ℓ+2). It is split into two halves so rotation
// batches can share work:
//
//   - decomposeNTT performs the shared half — one InvNTT of the input, then
//     per digit an RNS basis conversion to the primes outside the digit and
//     their forward NTTs (the digit's own limbs are the input's, already in
//     NTT form). Its output depends only on the input polynomial, not on the
//     switching key or the Galois element.
//
//   - keySwitchHoisted performs the per-key half: the inner product of the
//     (optionally automorphism-permuted) extended digits against the key
//     digits (innerProductHoisted), and the final modDownByP.
//
// Lazy mod-down goes one step further (double hoisting, Bossuat et al.): a
// rotation or relinearization may skip its mod-down and leave its result in
// the extended basis Q∪P — a deferred ciphertext, P times the switched value
// plus the key's noise. Add and Sub combine deferred values there (a Q-only
// operand is lifted as P·x), MulPlainAccumulate sums deferred products there,
// Rescale divides a deferred value by P·q_ℓ in one step (divideByPQ), and
// ModDown finishes one for any other consumer. The division by P is linear up
// to its rounding, so a sum of deferred values rounds once instead of once per
// term, and a rescale rounds once instead of twice.
//
// The hoisting trick (Halevi–Shoup) is that the lift commutes with the Galois
// automorphism well enough: the automorphism only permutes and negates
// coefficients, so φ of a lifted digit is congruent to φ(d) modulo the
// digit's primes and exactly as small — a valid lift of the rotated
// polynomial's digit. A batch of rotations of one ciphertext can therefore
// decompose c1 once and apply a cheap NTT-domain permutation per Galois
// element instead of redoing the InvNTT/mod-up/NTT per rotation.
//
// Noise: the lifted digit is bounded by half the digit's prime product D_j, so
// the switched ciphertext gains an error of about Σ_j D_j·|e_j|/P plus the
// rounding of the division. The compiler therefore sizes P to at least the
// largest digit product, which keeps the first term at the size of a fresh
// encryption error.

// hoistedDecomp holds the decomposed, mod-upped digits of one polynomial:
// extQ[j] is digit j over every chain prime at the decomposition level and
// extP[j] the same digit over the special primes, both in NTT form. The
// struct, its slices and the polynomials all come from the evaluator's pools;
// release with ev.releaseDecomp.
type hoistedDecomp struct {
	level int
	extQ  []*ring.Poly
	extP  []*ring.Poly
	// targets is the per-digit destination list handed to the mod-up
	// converter: every chain limb, then every special limb.
	targets [][]uint64
}

func (ev *Evaluator) newDecomp() any {
	params := ev.params
	digits := params.Digits(params.MaxLevel())
	return &hoistedDecomp{
		extQ:    make([]*ring.Poly, 0, digits),
		extP:    make([]*ring.Poly, 0, digits),
		targets: make([][]uint64, params.MaxLevel()+1+params.DigitSize()),
	}
}

// checkSwitchable reports whether swk can switch a polynomial at the given
// level under the evaluator's parameters.
func (ev *Evaluator) checkSwitchable(swk *SwitchingKey, level int) error {
	if ev.params.RingP() == nil {
		return fmt.Errorf("ckks: key switching requires a special prime")
	}
	if need := ev.params.Digits(level); len(swk.BQ) < need {
		return fmt.Errorf("ckks: switching key has %d digits, need %d", len(swk.BQ), need)
	}
	if have := len(swk.BQ[0].Coeffs); have <= level {
		return fmt.Errorf("ckks: switching key has %d chain limbs, need %d", have, level+1)
	}
	return nil
}

// decomposeNTT runs the shared half of a key switch on d (NTT form, at the
// given level): one InvNTT plus, per digit, the basis conversion and forward
// NTTs of the limbs outside the digit. The result can be fed to
// keySwitchHoisted any number of times, with any switching key and Galois
// element. The parameters must have special primes (checkSwitchable).
func (ev *Evaluator) decomposeNTT(d *ring.Poly, level int) *hoistedDecomp {
	params := ev.params
	r := params.RingQ()
	alpha := params.DigitSize()
	chain := params.MaxLevel() + 1

	dCoeff := ev.pool.Get(level)
	dCoeff.Copy(d)
	r.InvNTT(dCoeff)

	h := ev.decomps.Get().(*hoistedDecomp)
	h.level = level
	for j := 0; j < params.Digits(level); j++ {
		lo, hi := j*alpha, min((j+1)*alpha, level+1)
		extQ, extP := ev.pool.Get(level), ev.poolP.Get(alpha-1)
		for i := range h.targets[:chain] {
			if i <= level && (i < lo || i >= hi) {
				h.targets[i] = extQ.Coeffs[i]
			} else {
				h.targets[i] = nil
			}
		}
		copy(h.targets[chain:], extP.Coeffs)
		params.modUp[j][hi-lo-1].ConvertNTT(dCoeff.Coeffs[lo:hi], h.targets)
		// Modulo its own primes the lifted digit is d itself.
		for i := lo; i < hi; i++ {
			copy(extQ.Coeffs[i], d.Coeffs[i])
		}
		extQ.IsNTT, extP.IsNTT = true, true
		h.extQ, h.extP = append(h.extQ, extQ), append(h.extP, extP)
	}
	ev.pool.Put(dCoeff)
	return h
}

// releaseDecomp returns the decomposition and its scratch buffers to the pools.
func (ev *Evaluator) releaseDecomp(h *hoistedDecomp) {
	for j := range h.extQ {
		ev.pool.Put(h.extQ[j])
		ev.poolP.Put(h.extP[j])
	}
	clear(h.extQ)
	clear(h.extP)
	clear(h.targets)
	h.extQ, h.extP = h.extQ[:0], h.extP[:0]
	ev.decomps.Put(h)
}

// keySwitchHoisted applies the switching key swk to the decomposed digits h,
// producing (ks0, ks1) such that ks0 + ks1·s ≈ φ_galEl(d)·s', where d is the
// polynomial h was decomposed from and s' the secret swk encodes. galEl == 1
// is the identity (plain key switch); odd galEl > 1 permutes each digit in
// the NTT domain before the inner product, which is where a hoisted rotation
// saves its transforms. swk must have passed checkSwitchable for h's level.
// It is innerProductHoisted followed by one modDownByP per component. The
// returned polynomials come from the evaluator's pool; the caller releases
// them with ev.pool.Put.
//
// h is only read, so concurrent calls with distinct Galois elements may share
// one decomposition.
func (ev *Evaluator) keySwitchHoisted(h *hoistedDecomp, swk *SwitchingKey, galEl uint64) (ks0, ks1 *ring.Poly) {
	acc0Q, acc1Q, acc0P, acc1P := ev.innerProductHoisted(h, swk, galEl)
	ks0 = ev.modDownByP(acc0Q, acc0P)
	ks1 = ev.modDownByP(acc1Q, acc1P)
	ev.pool.Put(acc0Q)
	ev.pool.Put(acc1Q)
	ev.poolP.Put(acc0P)
	ev.poolP.Put(acc1P)
	return ks0, ks1
}

// innerProductHoisted is the key switch before its mod-down: the inner
// product of the (optionally φ_galEl-permuted) digits h with the key swk over
// the extended basis, P times the switched value plus the key's noise. The
// chain halves come from ev.pool and the special halves from ev.poolP; the
// caller releases them.
func (ev *Evaluator) innerProductHoisted(h *hoistedDecomp, swk *SwitchingKey, galEl uint64) (acc0Q, acc1Q, acc0P, acc1P *ring.Poly) {
	rp := ev.params.RingP()
	// The paired inner-product kernel overwrites its accumulators, fuses the
	// Galois permutation into the digit gather, and shares each gathered digit
	// between the B and A halves of the key, so there is no zeroing pass, no
	// permutation scratch, a single load of every digit coefficient, and one
	// Barrett reduction per output coefficient regardless of the digit count.
	acc0Q, acc1Q = ev.pool.Get(h.level), ev.pool.Get(h.level)
	ev.params.RingQ().InnerProductAutoNTTPair(h.extQ, swk.BQ, swk.AQ, galEl, acc0Q, acc1Q)
	acc0P, acc1P = ev.poolP.Get(rp.MaxLevel()), ev.poolP.Get(rp.MaxLevel())
	rp.InnerProductAutoNTTPair(h.extP, swk.BP, swk.AP, galEl, acc0P, acc1P)
	return acc0Q, acc1Q, acc0P, acc1P
}

// liftCombine sets out = x + P·y, or x − P·y when sub, over out's chain
// limbs, NTT form, P the special product and y over Q lifted into the
// extended basis Q∪P, where it is zero modulo every special prime: the chain
// half of combining a deferred value with a Q-only one. Aliasing out with x
// or y is safe.
func (ev *Evaluator) liftCombine(x, y, out *ring.Poly, sub bool) {
	params := ev.params
	for i, oi := range out.Coeffs {
		q := params.RingQ().Moduli[i].Q
		pm, ps := params.pModQ[i], params.pShoupModQ[i]
		xi, yi := x.Coeffs[i][:len(oi)], y.Coeffs[i][:len(oi)]
		if sub {
			for j := range oi {
				oi[j] = numth.SubMod(xi[j], numth.MulModShoup(yi[j], pm, ps, q), q)
			}
		} else {
			for j := range oi {
				oi[j] = numth.AddMod(xi[j], numth.MulModShoup(yi[j], pm, ps, q), q)
			}
		}
	}
	out.IsNTT = true
}

// modDownByP divides the value represented by (accQ, accP) — an RNS value over
// the basis {q_0..q_level, p_0..p_{α-1}} in NTT form — by the special product
// P with rounding, returning the result over {q_0..q_level} in NTT form. The
// result comes from the evaluator's pool (every slot is written); accQ is left
// untouched in NTT form, accP is consumed as scratch. All constants are
// precomputed on the parameter set, so this never runs an inverse on the hot
// path.
//
// The rounded division (acc − [acc]_P)·P⁻¹, with [acc]_P the centered
// remainder, is a per-coefficient linear map, so it commutes with the NTT:
// only the remainder needs the coefficient domain (an InvNTT of the α special
// limbs, their basis conversion to the chain, and a forward NTT of each
// converted limb), while accQ itself never leaves the NTT domain.
func (ev *Evaluator) modDownByP(accQ, accP *ring.Poly) *ring.Poly {
	params := ev.params
	params.RingP().InvNTT(accP)
	return ev.divideRounded(accQ, accP.Coeffs, params.modDown, params.pInvModQ, params.pInvShoupModQ, accQ.Level())
}

// divideRounded finishes a rounded division of the NTT-form value accQ by the
// product A of a basis of primes whose coefficient-domain residues src holds:
// conv converts src to the chain, and out = (accQ − [acc]_A)·A⁻¹ over chain
// limbs 0..level, pointwise in the NTT domain — exactly the
// coefficient-domain rounded division pushed through the transform. inv and
// invShoup hold A⁻¹ mod q_i and its Shoup quotient. The result comes from the
// evaluator's pool (every slot is written).
func (ev *Evaluator) divideRounded(accQ *ring.Poly, src [][]uint64, conv *ring.BasisConverter, inv, invShoup []uint64, level int) *ring.Poly {
	r := ev.params.RingQ()
	out := ev.pool.Get(level)
	conv.ConvertNTT(src, out.Coeffs)
	for i := 0; i <= level; i++ {
		q := r.Moduli[i].Q
		ai, oi := accQ.Coeffs[i], out.Coeffs[i]
		for j := range oi {
			oi[j] = numth.MulModShoup(numth.SubMod(ai[j], oi[j], q), inv[i], invShoup[i], q)
		}
	}
	out.IsNTT = true
	return out
}

// divideByPQ is the rescale of a deferred value: it divides (accQ, accP) — an
// RNS value over {q_0..q_ℓ}∪P in NTT form — by P·q_ℓ with one rounding and
// returns the result over {q_0..q_{ℓ-1}} in NTT form, from the evaluator's
// pool. Both inputs are only read. It is modDownByP with the dropped chain
// prime joining the special ones: the centred remainder modulo P·q_ℓ comes
// from the α+1 limbs {q_ℓ}∪P (their inverse transforms and one basis
// conversion, which transforms each converted limb forward), and the rest of
// the division is one pointwise pass in the NTT domain. Mod-down followed by
// rescale rounds twice and transforms the chain limbs once more.
func (ev *Evaluator) divideByPQ(accQ, accP *ring.Poly) *ring.Poly {
	params := ev.params
	r, rp := params.RingQ(), params.RingP()
	level := accQ.Level()
	special := ev.poolP.Get(rp.MaxLevel())
	special.Copy(accP)
	rp.InvNTT(special)
	last := ev.pool.Get(0)
	copy(last.Coeffs[0], accQ.Coeffs[level])
	r.Moduli[level].InvNTT(last.Coeffs[0])
	var buf [ring.MaxLazyDigits][]uint64
	src := append(append(buf[:0], last.Coeffs[0]), special.Coeffs...)
	out := ev.divideRounded(accQ, src, params.rescaleDown[level], params.pqInvModQ[level], params.pqInvShoupModQ[level], level-1)
	ev.poolP.Put(special)
	ev.pool.Put(last)
	return out
}
