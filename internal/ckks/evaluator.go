package ckks

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"eva/internal/ring"
)

// scaleTolerance is the maximum relative difference tolerated between the
// scales of addition operands. The EVA compiler guarantees operand scales
// match as powers of two; at run time the true scales may differ by the
// relative gap between a chain prime and its nearest power of two (largest
// for small primes in large rings), exactly as in the paper's SEAL executor,
// which records the power of two and absorbs the gap into the approximation
// error.
const scaleTolerance = 5e-2

// Evaluator performs homomorphic operations on ciphertexts. It corresponds to
// the per-instruction runtime the EVA executor drives; every method returns
// an error for exactly the conditions under which SEAL would throw a runtime
// exception, which is what the EVA compiler's validation passes must prevent.
type Evaluator struct {
	params *Parameters
	rlk    *RelinearizationKey
	rtk    *RotationKeySet

	// pool and poolP recycle polynomials over the chain and over the special
	// primes across operations (and across the executor's worker goroutines —
	// sync.Pool is concurrent). Scratch comes from them, and so does every
	// result ciphertext: a caller that knows a result is dead hands it back
	// with Recycle, and the next operation at that level reuses its buffers
	// instead of allocating. decomps and batches recycle the bookkeeping of
	// key-switch decompositions and hoisted rotation batches the same way.
	pool    *polyPool
	poolP   *polyPool
	decomps sync.Pool
	batches sync.Pool
}

// EvaluationKeys bundles the public evaluation material the evaluator needs.
type EvaluationKeys struct {
	Rlk *RelinearizationKey
	Rtk *RotationKeySet
}

// NewEvaluator builds an evaluator; keys may be nil when the corresponding
// operations (relinearize, rotate) are not used.
func NewEvaluator(params *Parameters, keys EvaluationKeys) *Evaluator {
	ev := &Evaluator{
		params: params,
		rlk:    keys.Rlk,
		rtk:    keys.Rtk,
		pool:   newPolyPool(params.RingQ()),
	}
	if rp := params.RingP(); rp != nil {
		ev.poolP = newPolyPool(rp)
		ev.decomps.New = ev.newDecomp
	}
	ev.batches.New = func() any { return new(rotationBatch) }
	return ev
}

// Params returns the evaluator's parameter set.
func (ev *Evaluator) Params() *Parameters { return ev.params }

// newCiphertext assembles a result ciphertext from pooled polynomials. Their
// coefficients are undefined: the caller overwrites every limb.
func (ev *Evaluator) newCiphertext(size, level int, scale float64) *Ciphertext {
	ct := &Ciphertext{Value: make([]*ring.Poly, size), Scale: scale, Level: level}
	for i := range ct.Value {
		ct.Value[i] = ev.pool.Get(level)
	}
	return ct
}

// copyCiphertext is Ciphertext.CopyNew into pooled polynomials.
func (ev *Evaluator) copyCiphertext(a *Ciphertext) *Ciphertext {
	out := ev.newCiphertext(len(a.Value), a.Level, a.Scale)
	for i := range a.Value {
		out.Value[i].Copy(a.Value[i])
	}
	return out
}

// Recycle returns the polynomials of a ciphertext this evaluator produced to
// its buffer pool and empties ct. The caller must own ct outright and never
// touch it again: a recycled buffer is overwritten by whichever operation
// draws it next. Ciphertexts that came from anywhere else — decoded inputs,
// results already handed to a client — must not be recycled.
func (ev *Evaluator) Recycle(ct *Ciphertext) {
	for _, p := range ct.Value {
		ev.pool.Put(p)
	}
	for _, p := range ct.ValueP {
		ev.poolP.Put(p)
	}
	ct.Value, ct.ValueP = nil, nil
}

// checkNotDeferred refuses a ciphertext whose mod-down is deferred: only
// Add, Sub, MulPlainAccumulate, Rescale and ModDown accept one.
func checkNotDeferred(cts ...*Ciphertext) error {
	for _, ct := range cts {
		if ct.Deferred() {
			return fmt.Errorf("ckks: ciphertext has a deferred mod-down; only Add, Sub, MulPlainAccumulate, Rescale and ModDown accept it")
		}
	}
	return nil
}

func (ev *Evaluator) checkBinaryCt(a, b *Ciphertext) error {
	if err := checkNotDeferred(a, b); err != nil {
		return err
	}
	return checkLevels(a, b)
}

func checkLevels(a, b *Ciphertext) error {
	if a.Level != b.Level {
		return fmt.Errorf("ckks: operand level mismatch (%d vs %d): ciphertexts must have the same coefficient modulus", a.Level, b.Level)
	}
	return nil
}

func scalesMatch(a, b float64) bool {
	return math.Abs(a-b) <= scaleTolerance*math.Max(math.Abs(a), math.Abs(b))
}

// Add returns a + b element-wise. Both operands must be at the same level and
// scale (Constraints 1 and 2 of the paper). Either may be deferred
// (Ciphertext.Deferred), and then so is the sum: it stays over Q∪P, a Q-only
// operand lifted as P·x.
func (ev *Evaluator) Add(a, b *Ciphertext) (*Ciphertext, error) {
	return ev.addSub(a, b, false)
}

// Sub returns a - b element-wise under the same constraints as Add.
func (ev *Evaluator) Sub(a, b *Ciphertext) (*Ciphertext, error) {
	return ev.addSub(a, b, true)
}

func (ev *Evaluator) addSub(a, b *Ciphertext, sub bool) (*Ciphertext, error) {
	what := "addition"
	if sub {
		what = "subtraction"
	}
	if err := checkLevels(a, b); err != nil {
		return nil, err
	}
	if !scalesMatch(a.Scale, b.Scale) {
		return nil, fmt.Errorf("ckks: %s operand scale mismatch (%g vs %g)", what, a.Scale, b.Scale)
	}
	if a.Deferred() || b.Deferred() {
		return ev.addSubDeferred(a, b, sub, what)
	}
	size := max(len(a.Value), len(b.Value))
	r := ev.params.RingQ()
	out := ev.newCiphertext(size, a.Level, a.Scale)
	for i := 0; i < size; i++ {
		switch {
		case i < len(a.Value) && i < len(b.Value) && sub:
			r.Sub(a.Value[i], b.Value[i], out.Value[i])
		case i < len(a.Value) && i < len(b.Value):
			r.Add(a.Value[i], b.Value[i], out.Value[i])
		case i < len(a.Value):
			out.Value[i].Copy(a.Value[i])
		case sub:
			r.Neg(b.Value[i], out.Value[i])
		default:
			out.Value[i].Copy(b.Value[i])
		}
		out.Value[i].IsNTT = true
	}
	return out, nil
}

// addSubDeferred is a ± b with at least one deferred operand, both of degree
// 1: the result stays over Q∪P. Over the special primes a Q-only operand is
// P·x ≡ 0, so there the result is the deferred operand's limbs. A Q-only
// first operand swaps places with the deferred one: a + b = b + a, and
// a − b = −(b − a).
func (ev *Evaluator) addSubDeferred(a, b *Ciphertext, sub bool, what string) (*Ciphertext, error) {
	if a.Degree() != 1 || b.Degree() != 1 {
		return nil, fmt.Errorf("ckks: %s of a deferred ciphertext requires degree-1 operands (got %d and %d)", what, a.Degree(), b.Degree())
	}
	negate := false
	if !a.Deferred() {
		a, b, negate = b, a, sub
	}
	r, rp := ev.params.RingQ(), ev.params.RingP()
	out := ev.newDeferred(a.Level, a.Scale)
	for i := range out.Value {
		switch {
		case b.Deferred() && sub:
			r.Sub(a.Value[i], b.Value[i], out.Value[i])
			rp.Sub(a.ValueP[i], b.ValueP[i], out.ValueP[i])
		case b.Deferred():
			r.Add(a.Value[i], b.Value[i], out.Value[i])
			rp.Add(a.ValueP[i], b.ValueP[i], out.ValueP[i])
		default:
			ev.liftCombine(a.Value[i], b.Value[i], out.Value[i], sub)
			out.ValueP[i].Copy(a.ValueP[i])
		}
		if negate {
			r.Neg(out.Value[i], out.Value[i])
			rp.Neg(out.ValueP[i], out.ValueP[i])
		}
		out.Value[i].IsNTT, out.ValueP[i].IsNTT = true, true
	}
	return out, nil
}

// newDeferred assembles a degree-1 deferred result from pooled polynomials,
// chain and special halves; the caller overwrites every limb.
func (ev *Evaluator) newDeferred(level int, scale float64) *Ciphertext {
	out := ev.newCiphertext(2, level, scale)
	alpha := ev.params.DigitSize()
	out.ValueP = []*ring.Poly{ev.poolP.Get(alpha - 1), ev.poolP.Get(alpha - 1)}
	return out
}

// ModDown finishes a deferred ciphertext: it divides each component by the
// special product P with rounding and returns the result over the chain
// primes alone. a is only read.
func (ev *Evaluator) ModDown(a *Ciphertext) (*Ciphertext, error) {
	if !a.Deferred() {
		return nil, fmt.Errorf("ckks: ModDown of a ciphertext with no deferred mod-down")
	}
	out := &Ciphertext{Value: make([]*ring.Poly, len(a.Value)), Scale: a.Scale, Level: a.Level}
	scratch := ev.poolP.Get(ev.params.DigitSize() - 1)
	for i := range a.Value {
		scratch.Copy(a.ValueP[i])
		out.Value[i] = ev.modDownByP(a.Value[i], scratch)
	}
	ev.poolP.Put(scratch)
	return out, nil
}

// Negate returns -a.
func (ev *Evaluator) Negate(a *Ciphertext) (*Ciphertext, error) {
	if err := checkNotDeferred(a); err != nil {
		return nil, err
	}
	r := ev.params.RingQ()
	out := ev.newCiphertext(len(a.Value), a.Level, a.Scale)
	for i := range a.Value {
		r.Neg(a.Value[i], out.Value[i])
		out.Value[i].IsNTT = true
	}
	return out, nil
}

func (ev *Evaluator) checkPlain(a *Ciphertext, p *Plaintext) error {
	if p.Level < a.Level {
		return fmt.Errorf("ckks: plaintext level %d below ciphertext level %d", p.Level, a.Level)
	}
	if !p.Value.IsNTT {
		return fmt.Errorf("ckks: plaintext operand must be in NTT form")
	}
	return nil
}

// AddPlain returns a + p where p is a plaintext at the same scale.
func (ev *Evaluator) AddPlain(a *Ciphertext, p *Plaintext) (*Ciphertext, error) {
	if err := checkNotDeferred(a); err != nil {
		return nil, err
	}
	if err := ev.checkPlain(a, p); err != nil {
		return nil, err
	}
	if !scalesMatch(a.Scale, p.Scale) {
		return nil, fmt.Errorf("ckks: plaintext addition scale mismatch (%g vs %g)", a.Scale, p.Scale)
	}
	return ev.combinePlain(a, p, ev.params.RingQ().Add), nil
}

// combinePlain builds a ± p: component 0 is written straight from a.Value[0]
// and p.Value (op reads only the limbs of the result's level, so a plaintext
// at a higher level needs no truncated copy); higher components are copied.
func (ev *Evaluator) combinePlain(a *Ciphertext, p *Plaintext, op func(a, b, out *ring.Poly)) *Ciphertext {
	out := ev.newCiphertext(len(a.Value), a.Level, a.Scale)
	op(a.Value[0], p.Value, out.Value[0])
	out.Value[0].IsNTT = true
	for i := 1; i < len(a.Value); i++ {
		out.Value[i].Copy(a.Value[i])
	}
	return out
}

// SubPlain returns a - p.
func (ev *Evaluator) SubPlain(a *Ciphertext, p *Plaintext) (*Ciphertext, error) {
	if err := checkNotDeferred(a); err != nil {
		return nil, err
	}
	if err := ev.checkPlain(a, p); err != nil {
		return nil, err
	}
	if !scalesMatch(a.Scale, p.Scale) {
		return nil, fmt.Errorf("ckks: plaintext subtraction scale mismatch (%g vs %g)", a.Scale, p.Scale)
	}
	return ev.combinePlain(a, p, ev.params.RingQ().Sub), nil
}

// Mul multiplies two degree-1 ciphertexts, producing a degree-2 ciphertext
// whose scale is the product of the operand scales. Both operands must be
// degree 1 (Constraint 3) and at the same level (Constraint 1).
func (ev *Evaluator) Mul(a, b *Ciphertext) (*Ciphertext, error) {
	if err := ev.checkBinaryCt(a, b); err != nil {
		return nil, err
	}
	if a.Degree() != 1 || b.Degree() != 1 {
		return nil, fmt.Errorf("ckks: ciphertext multiplication requires degree-1 operands (got %d and %d); relinearize first", a.Degree(), b.Degree())
	}
	r := ev.params.RingQ()
	out := ev.newCiphertext(3, a.Level, a.Scale*b.Scale)
	// (a0 + a1 s)(b0 + b1 s) = a0b0 + (a0b1 + a1b0) s + a1b1 s².
	r.MulCoeffs(a.Value[0], b.Value[0], out.Value[0])
	r.MulCoeffs(a.Value[0], b.Value[1], out.Value[1])
	r.MulCoeffsAndAdd(a.Value[1], b.Value[0], out.Value[1])
	r.MulCoeffs(a.Value[1], b.Value[1], out.Value[2])
	return out, nil
}

// MulPlain multiplies a ciphertext by a plaintext; the result scale is the
// product of both scales.
func (ev *Evaluator) MulPlain(a *Ciphertext, p *Plaintext) (*Ciphertext, error) {
	if err := checkNotDeferred(a); err != nil {
		return nil, err
	}
	if err := ev.checkPlain(a, p); err != nil {
		return nil, err
	}
	r := ev.params.RingQ()
	out := ev.newCiphertext(len(a.Value), a.Level, a.Scale*p.Scale)
	for i := range a.Value {
		r.MulCoeffs(a.Value[i], p.Value, out.Value[i])
	}
	return out, nil
}

// MulPlainAccumulate returns Σ cts[i]·pts[i], bit-identical to summing the
// MulPlain products left to right with Add (the result takes the first
// product's scale, as that chain of Adds would), but evaluated as one fused
// kernel: the products accumulate lazily in 128 bits, so every output
// coefficient pays one Barrett reduction instead of one per product plus a
// modular add per sum, and no intermediate ciphertext is materialised. It is
// the key-switch inner product with the roles swapped — the plaintexts are
// the digits and the ciphertext halves the key. All ciphertexts must be
// degree 1 and at one level, and every product must match the first one's
// scale.
//
// A deferred ciphertext (Ciphertext.Deferred) may be among the ciphertexts;
// its plaintext must then be extended over the special primes
// (Encoder.EncodeExtended). The deferred products accumulate over Q∪P, the
// sum of the other products is lifted there as P·Σ, and the result stays
// deferred: one ModDown or Rescale finishes the whole sum — double hoisting.
// The division by P commutes with the sum up to its single rounding, so the
// result is the same sum, not the same bits, as finishing each operand
// first.
func (ev *Evaluator) MulPlainAccumulate(cts []*Ciphertext, pts []*Plaintext) (*Ciphertext, error) {
	if len(cts) == 0 || len(cts) != len(pts) {
		return nil, fmt.Errorf("ckks: multiply-accumulate of %d ciphertexts and %d plaintexts", len(cts), len(pts))
	}
	level, scale := cts[0].Level, cts[0].Scale*pts[0].Scale
	deferred := 0
	for i, ct := range cts {
		if ct.Degree() != 1 {
			return nil, fmt.Errorf("ckks: multiply-accumulate requires degree-1 ciphertexts (operand %d has degree %d)", i, ct.Degree())
		}
		if ct.Level != level {
			return nil, fmt.Errorf("ckks: operand level mismatch (%d vs %d): ciphertexts must have the same coefficient modulus", level, ct.Level)
		}
		if err := ev.checkPlain(ct, pts[i]); err != nil {
			return nil, err
		}
		if s := ct.Scale * pts[i].Scale; !scalesMatch(scale, s) {
			return nil, fmt.Errorf("ckks: addition operand scale mismatch (%g vs %g)", scale, s)
		}
		if ct.Deferred() {
			if pts[i].ValueP == nil {
				return nil, fmt.Errorf("ckks: operand %d has a deferred mod-down but its plaintext is not extended over the special primes", i)
			}
			deferred++
		}
	}
	// leaves yields the products over deferred ciphertexts or over the other
	// ciphertexts, over the chain primes or over the special ones.
	leaves := func(deferred, special bool) func(int) (p, c0, c1 *ring.Poly) {
		return func(i int) (p, c0, c1 *ring.Poly) {
			switch ct := cts[i]; {
			case ct.Deferred() != deferred:
				return nil, nil, nil
			case special:
				return pts[i].ValueP, ct.ValueP[0], ct.ValueP[1]
			default:
				return pts[i].Value, ct.Value[0], ct.Value[1]
			}
		}
	}
	r := ev.params.RingQ()
	if deferred == 0 {
		out := ev.newCiphertext(2, level, scale)
		ev.accumulate(r, ev.pool, len(cts), leaves(false, false), out.Value[0], out.Value[1])
		return out, nil
	}

	rp := ev.params.RingP()
	out := ev.newDeferred(level, scale)
	ev.accumulate(r, ev.pool, len(cts), leaves(true, false), out.Value[0], out.Value[1])
	ev.accumulate(rp, ev.poolP, len(cts), leaves(true, true), out.ValueP[0], out.ValueP[1])
	if deferred < len(cts) {
		acc0, acc1 := ev.pool.Get(level), ev.pool.Get(level)
		ev.accumulate(r, ev.pool, len(cts), leaves(false, false), acc0, acc1)
		ev.liftCombine(out.Value[0], acc0, out.Value[0], false)
		ev.liftCombine(out.Value[1], acc1, out.Value[1], false)
		ev.pool.Put(acc0)
		ev.pool.Put(acc1)
	}
	return out, nil
}

// accumulate sets out0 = Σ p·c0 and out1 = Σ p·c1 over r, the sums running
// over the n products operand yields (a nil p skips the product; at least
// one must be present), in chunks of ring.MaxLazyDigits lazy products whose
// partial sums come from pool.
func (ev *Evaluator) accumulate(r *ring.Ring, pool *polyPool, n int, operand func(i int) (p, c0, c1 *ring.Poly), out0, out1 *ring.Poly) {
	var ps, c0s, c1s [ring.MaxLazyDigits]*ring.Poly
	var part0, part1 *ring.Poly // partial sums of the chunks after the first
	k, first := 0, true
	flush := func() {
		if first {
			r.InnerProductAutoNTTPair(ps[:k], c0s[:k], c1s[:k], 1, out0, out1)
			first = false
		} else {
			if part0 == nil {
				part0, part1 = pool.Get(out0.Level()), pool.Get(out1.Level())
			}
			r.InnerProductAutoNTTPair(ps[:k], c0s[:k], c1s[:k], 1, part0, part1)
			r.Add(out0, part0, out0)
			r.Add(out1, part1, out1)
		}
		k = 0
	}
	for i := 0; i < n; i++ {
		p, c0, c1 := operand(i)
		if p == nil {
			continue
		}
		ps[k], c0s[k], c1s[k] = p, c0, c1
		if k++; k == ring.MaxLazyDigits {
			flush()
		}
	}
	if k > 0 {
		flush()
	}
	pool.Put(part0)
	pool.Put(part1)
}

// Relinearize reduces a degree-2 ciphertext back to degree 1 using the
// relinearization key.
func (ev *Evaluator) Relinearize(a *Ciphertext) (*Ciphertext, error) {
	return ev.relinearize(a, false)
}

// RelinearizeDeferred is Relinearize without the key switch's mod-down: the
// result of a degree-2 ciphertext stays over Q∪P (Ciphertext.Deferred), for
// Add, Sub, MulPlainAccumulate or Rescale to finish. A degree-1 ciphertext is
// copied as Relinearize copies it.
func (ev *Evaluator) RelinearizeDeferred(a *Ciphertext) (*Ciphertext, error) {
	return ev.relinearize(a, true)
}

func (ev *Evaluator) relinearize(a *Ciphertext, deferred bool) (*Ciphertext, error) {
	if err := checkNotDeferred(a); err != nil {
		return nil, err
	}
	if a.Degree() == 1 {
		return ev.copyCiphertext(a), nil
	}
	if a.Degree() != 2 {
		return nil, fmt.Errorf("ckks: relinearization supports degree-2 ciphertexts, got degree %d", a.Degree())
	}
	if ev.rlk == nil {
		return nil, fmt.Errorf("ckks: no relinearization key available")
	}
	if err := ev.checkSwitchable(ev.rlk.Key, a.Level); err != nil {
		return nil, err
	}
	r := ev.params.RingQ()
	h := ev.decomposeNTT(a.Value[2], a.Level)
	defer ev.releaseDecomp(h)
	if deferred {
		acc0Q, acc1Q, acc0P, acc1P := ev.innerProductHoisted(h, ev.rlk.Key, 1)
		ev.liftCombine(acc0Q, a.Value[0], acc0Q, false)
		ev.liftCombine(acc1Q, a.Value[1], acc1Q, false)
		return &Ciphertext{Value: []*ring.Poly{acc0Q, acc1Q}, ValueP: []*ring.Poly{acc0P, acc1P}, Scale: a.Scale, Level: a.Level}, nil
	}
	ks0, ks1 := ev.keySwitchHoisted(h, ev.rlk.Key, 1)
	// The key-switch outputs become the result's components in place.
	r.Add(a.Value[0], ks0, ks0)
	r.Add(a.Value[1], ks1, ks1)
	ks0.IsNTT, ks1.IsNTT = true, true
	return &Ciphertext{Value: []*ring.Poly{ks0, ks1}, Scale: a.Scale, Level: a.Level}, nil
}

// Rescale divides the ciphertext by the last prime of its modulus chain,
// dropping one level and dividing the scale accordingly (the RESCALE
// instruction). It fails at level 0, mirroring SEAL's runtime exception. A
// deferred ciphertext is divided by P·q_ℓ in one step, one rounding, and the
// result is over the chain primes alone.
func (ev *Evaluator) Rescale(a *Ciphertext) (*Ciphertext, error) {
	if a.Level == 0 {
		return nil, fmt.Errorf("ckks: cannot rescale a level-0 ciphertext (modulus chain exhausted)")
	}
	r := ev.params.RingQ()
	q := r.Moduli[a.Level].Q
	if a.Deferred() {
		out := &Ciphertext{Value: make([]*ring.Poly, len(a.Value)), Scale: a.Scale / float64(q), Level: a.Level - 1}
		for i := range a.Value {
			out.Value[i] = ev.divideByPQ(a.Value[i], a.ValueP[i])
		}
		return out, nil
	}
	out := ev.newCiphertext(len(a.Value), a.Level-1, a.Scale/float64(q))
	for i := range a.Value {
		r.DivideByLastModulusNTT(a.Value[i], out.Value[i])
	}
	return out, nil
}

// ModSwitch drops the last prime of the modulus chain without scaling the
// plaintext (the MODSWITCH instruction).
func (ev *Evaluator) ModSwitch(a *Ciphertext) (*Ciphertext, error) {
	if err := checkNotDeferred(a); err != nil {
		return nil, err
	}
	if a.Level == 0 {
		return nil, fmt.Errorf("ckks: cannot modulus-switch a level-0 ciphertext")
	}
	out := ev.newCiphertext(len(a.Value), a.Level-1, a.Scale)
	for i, p := range a.Value {
		for j, limb := range out.Value[i].Coeffs {
			copy(limb, p.Coeffs[j])
		}
		out.Value[i].IsNTT = p.IsNTT
	}
	return out, nil
}

// rotationElement resolves a rotation step to its Galois element and
// switching key, validating that the key exists and covers the level.
func (ev *Evaluator) rotationElement(k, level int) (uint64, *SwitchingKey, error) {
	if ev.rtk == nil {
		return 0, nil, fmt.Errorf("ckks: missing rotation key for step %d (no rotation keys available)", k)
	}
	galEl := ev.params.GaloisElementForRotation(k)
	swk, ok := ev.rtk.Keys[galEl]
	if !ok {
		return 0, nil, fmt.Errorf("ckks: missing rotation key for step %d (Galois element %d)", k, galEl)
	}
	if err := ev.checkSwitchable(swk, level); err != nil {
		return 0, nil, err
	}
	return galEl, swk, nil
}

// rotateFromDecomp produces the rotation of a by the Galois element galEl,
// reusing the shared decomposition h of a.Value[1]. Rotation is the Galois
// automorphism applied to both ciphertext components followed by a key switch
// of the rotated c1 back to the original secret; the automorphism commutes
// with the NTT, so it is applied directly in the NTT domain as a slot
// permutation — no InvNTT+NTT round trip.
//
// A deferred rotation skips the mod-down: it returns P·φ(c0)+IP₀ and IP₁ over
// the chain primes, with IP₀ and IP₁ over the special primes beside them
// (ValueP), IP being the key inner product before its division by P.
func (ev *Evaluator) rotateFromDecomp(a *Ciphertext, h *hoistedDecomp, swk *SwitchingKey, galEl uint64, deferred bool) *Ciphertext {
	r := ev.params.RingQ()
	rot0 := ev.pool.Get(a.Level)
	r.AutomorphismNTT(a.Value[0], galEl, rot0)
	if deferred {
		acc0Q, acc1Q, acc0P, acc1P := ev.innerProductHoisted(h, swk, galEl)
		ev.liftCombine(acc0Q, rot0, acc0Q, false)
		ev.pool.Put(rot0)
		return &Ciphertext{Value: []*ring.Poly{acc0Q, acc1Q}, ValueP: []*ring.Poly{acc0P, acc1P}, Scale: a.Scale, Level: a.Level}
	}
	ks0, ks1 := ev.keySwitchHoisted(h, swk, galEl)
	// Assemble the result in place: the key-switch outputs become the
	// ciphertext components directly (they leave the pool for good), so the
	// batch path never zero-allocates a ciphertext or copies a limb.
	r.Add(rot0, ks0, ks0)
	ev.pool.Put(rot0)
	ks0.IsNTT, ks1.IsNTT = true, true
	return &Ciphertext{Value: []*ring.Poly{ks0, ks1}, Scale: a.Scale, Level: a.Level}
}

// rotationBatch is the bookkeeping of one RotateHoisted call, recycled
// through Evaluator.batches so a batch allocates only what it returns.
type rotationBatch struct {
	elems []rotationElem
	cts   []*Ciphertext
}

type rotationElem struct {
	k        int
	galEl    uint64
	swk      *SwitchingKey
	deferred bool
}

// RotateHoisted rotates a by every step in ks, sharing one decomposition of
// c1 across the whole batch (Halevi–Shoup hoisting): the InvNTT + per-digit
// mod-up + forward NTTs run once, and each Galois element only pays a slot
// permutation, the key inner product, and the final mod-down. The per-element
// work is fanned across the ring worker pool. Results are keyed by step;
// duplicate steps collapse to one entry. Each result is bit-identical to the
// corresponding RotateLeft call.
//
// deferred, when non-nil, runs beside ks: a step with deferred[i] set skips
// its mod-down and returns a deferred rotation (Ciphertext.Deferred), which
// only Add, Sub, MulPlainAccumulate, Rescale and ModDown accept. A step listed twice must be asked for the
// same way. Every step needs its rotation key, a step that is a multiple of
// the slot count included: the compiler folds those identity rotations away.
func (ev *Evaluator) RotateHoisted(a *Ciphertext, ks []int, deferred []bool) (map[int]*Ciphertext, error) {
	if err := checkNotDeferred(a); err != nil {
		return nil, err
	}
	if deferred != nil && len(deferred) != len(ks) {
		return nil, fmt.Errorf("ckks: %d deferral flags for %d rotation steps", len(deferred), len(ks))
	}
	if a.Degree() != 1 {
		return nil, fmt.Errorf("ckks: rotation requires a degree-1 ciphertext; relinearize first")
	}
	b := ev.batches.Get().(*rotationBatch)
	defer func() {
		clear(b.elems)
		clear(b.cts)
		b.elems, b.cts = b.elems[:0], b.cts[:0]
		ev.batches.Put(b)
	}()
	// Resolve every key before producing anything, so a missing key fails
	// the batch without results to hand back.
	for i, k := range ks {
		def := deferred != nil && deferred[i]
		if j := slices.IndexFunc(b.elems, func(e rotationElem) bool { return e.k == k }); j >= 0 {
			if b.elems[j].deferred != def {
				return nil, fmt.Errorf("ckks: rotation step %d asked for both with and without its mod-down", k)
			}
			continue
		}
		galEl, swk, err := ev.rotationElement(k, a.Level)
		if err != nil {
			return nil, err
		}
		b.elems = append(b.elems, rotationElem{k, galEl, swk, def})
	}
	out := make(map[int]*Ciphertext, len(b.elems))
	if len(b.elems) == 0 {
		return out, nil
	}

	h := ev.decomposeNTT(a.Value[1], a.Level)
	b.cts = append(b.cts, make([]*Ciphertext, len(b.elems))...)
	elems, cts := b.elems, b.cts
	ring.Parallel(len(elems), func(i int) {
		cts[i] = ev.rotateFromDecomp(a, h, elems[i].swk, elems[i].galEl, elems[i].deferred)
	})
	ev.releaseDecomp(h)
	for i, e := range elems {
		out[e.k] = cts[i]
	}
	return out, nil
}

// RotateLeft cyclically rotates the plaintext slots left by k positions. The
// required Galois key must have been generated for this step count. It is the
// batch-of-one case of RotateHoisted, without the batch bookkeeping.
func (ev *Evaluator) RotateLeft(a *Ciphertext, k int) (*Ciphertext, error) {
	if err := checkNotDeferred(a); err != nil {
		return nil, err
	}
	if a.Degree() != 1 {
		return nil, fmt.Errorf("ckks: rotation requires a degree-1 ciphertext; relinearize first")
	}
	galEl, swk, err := ev.rotationElement(k, a.Level)
	if err != nil {
		return nil, err
	}
	h := ev.decomposeNTT(a.Value[1], a.Level)
	out := ev.rotateFromDecomp(a, h, swk, galEl, false)
	ev.releaseDecomp(h)
	return out, nil
}

// RotateRight rotates slots right by k positions.
func (ev *Evaluator) RotateRight(a *Ciphertext, k int) (*Ciphertext, error) {
	return ev.RotateLeft(a, -k)
}
