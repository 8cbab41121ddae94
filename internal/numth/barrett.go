package numth

import "math/bits"

// This file holds the fast modular-reduction primitives used on the backend
// hot paths: Barrett reduction (for products of two variable operands) and
// Shoup multiplication (for products against a fixed operand with a
// precomputed quotient, e.g. NTT twiddle factors). The Div64-based MulMod in
// numth.go is retained unchanged as the reference oracle; the property tests
// in barrett_test.go pin every function here against it.

// Barrett holds the precomputed constant floor(2^128 / Q) used to reduce
// 128-bit values modulo Q without a hardware division. Q must be odd (all
// NTT-friendly primes are), so that floor((2^128-1)/Q) == floor(2^128/Q).
type Barrett struct {
	Q  uint64
	hi uint64 // floor(2^128/Q) >> 64
	lo uint64 // floor(2^128/Q) & (2^64-1)
}

// NewBarrett precomputes the Barrett constant for the odd modulus q.
func NewBarrett(q uint64) Barrett {
	if q < 3 || q&1 == 0 {
		panic("numth: Barrett modulus must be odd and > 2")
	}
	// floor((2^128-1)/q) by schoolbook long division; equals floor(2^128/q)
	// because odd q never divides 2^128.
	allOnes := ^uint64(0)
	hi := allOnes / q
	rem := allOnes % q
	lo, _ := bits.Div64(rem, allOnes, q)
	return Barrett{Q: q, hi: hi, lo: lo}
}

// Reduce returns (xhi·2^64 + xlo) mod Q for an arbitrary 128-bit value.
// The quotient estimate floor(x·u/2^128) with u = floor(2^128/Q) undershoots
// the true quotient by at most 2, so two conditional subtractions suffice.
func (b Barrett) Reduce(xhi, xlo uint64) uint64 {
	ahi, _ := bits.Mul64(xlo, b.lo)
	bhi, blo := bits.Mul64(xlo, b.hi)
	chi, clo := bits.Mul64(xhi, b.lo)
	mid, c1 := bits.Add64(blo, clo, 0)
	_, c2 := bits.Add64(mid, ahi, 0)
	qhat := xhi*b.hi + bhi + chi + c1 + c2
	r := xlo - qhat*b.Q
	if r >= b.Q {
		r -= b.Q
	}
	if r >= b.Q {
		r -= b.Q
	}
	return r
}

// ReduceWord returns x mod Q for a single 64-bit value without dividing.
func (b Barrett) ReduceWord(x uint64) uint64 {
	ahi, _ := bits.Mul64(x, b.lo)
	bhi, blo := bits.Mul64(x, b.hi)
	_, carry := bits.Add64(blo, ahi, 0)
	qhat := bhi + carry
	r := x - qhat*b.Q
	if r >= b.Q {
		r -= b.Q
	}
	if r >= b.Q {
		r -= b.Q
	}
	return r
}

// Frac64 returns floor(y·floor(2^128/Q) / 2^64) for y < Q: the fraction y/Q
// as a 64-bit fixed-point number, low by less than 2^-63. RNS basis
// conversion sums these fractions to find how many multiples of the source
// modulus its lift overshoots by.
func (b Barrett) Frac64(y uint64) uint64 {
	hi, _ := bits.Mul64(y, b.lo)
	return y*b.hi + hi
}

// MulMod returns (x·y) mod Q via Barrett reduction of the 128-bit product.
// It accepts arbitrary uint64 operands, like the reference MulMod.
func (b Barrett) MulMod(x, y uint64) uint64 {
	hi, lo := bits.Mul64(x, y)
	return b.Reduce(hi, lo)
}

// ShoupPrecomp returns floor(s·2^64 / q), the precomputed Shoup quotient for
// repeatedly multiplying by the fixed operand s. Requires s < q.
func ShoupPrecomp(s, q uint64) uint64 {
	if s >= q {
		panic("numth: Shoup operand must be reduced modulo q")
	}
	hi, _ := bits.Div64(s, 0, q)
	return hi
}

// MulModShoupLazy returns x·s mod q in the lazy range [0, 2q), where
// sShoup = ShoupPrecomp(s, q). x may be any uint64 (in particular a value in
// a lazy range [0, 4q)), which is what makes the lazy-reduction NTT work.
func MulModShoupLazy(x, s, sShoup, q uint64) uint64 {
	hi, _ := bits.Mul64(x, sShoup)
	return x*s - hi*q
}

// MulModShoup returns x·s mod q in [0, q), where sShoup = ShoupPrecomp(s, q).
func MulModShoup(x, s, sShoup, q uint64) uint64 {
	r := MulModShoupLazy(x, s, sShoup, q)
	if r >= q {
		r -= q
	}
	return r
}
