package ring

import (
	"fmt"
	"math/bits"
	"sync"

	"eva/internal/numth"
)

// BasisConverter is the RNS basis-conversion kernel of hybrid key switching.
// A polynomial is known by its residues over a source basis of primes
// a_0..a_{s-1} with product A; the converter produces, for each prime t of a
// destination list, the residues modulo t of the *centered* representative
// x ∈ [-A/2, A/2) — the same integer polynomial under every t, so the outputs
// together with the inputs form one polynomial over the union basis. It is
// used in both directions: mod-up lifts one decomposition digit (a group of
// chain primes) to the rest of the chain and the special primes, and mod-down
// lifts the special-prime residues of an accumulator to the chain.
//
// With y_i = [x_i·(A/a_i)^-1]_{a_i}, the integer Σ y_i·(A/a_i) is congruent
// to x modulo A and overshoots the centered representative by v·A, where
// v = round(Σ y_i/a_i). v is found from 64-bit fixed-point fractions
// (numth.Barrett.Frac64), whose sum is low by less than s·2^-63: the result is
// the centered representative unless Σ y_i/a_i lies that close below a half
// integer, when it is off by exactly A — still a representative of x, which
// is all key switching needs. For a one-prime basis the decision is exact
// (y ≥ (a+1)/2 lifts to y − a), which makes the one-prime-digit case agree
// with a plain centered lift bit for bit.
//
// A converter's tables are immutable after construction and it is safe for
// concurrent use; it must not be copied (it pools its scratch).
type BasisConverter struct {
	src       []*Modulus
	inv       []uint64 // (A/a_i)^-1 mod a_i
	invShoup  []uint64
	dst       []*Modulus
	constants [][]uint64 // per destination t: (A/a_i) mod t for each i, then −A mod t
	scratch   sync.Pool  // *[]uint64 of N·(s+1) words, see ConvertNTT
}

// NewBasisConverter precomputes the conversion from the basis src to every
// modulus of dst. Destination primes that also occur in src are allowed (the
// tables are level-independent, so one converter serves every level); callers
// skip them at conversion time.
func NewBasisConverter(src, dst []*Modulus) (*BasisConverter, error) {
	if len(src) == 0 || len(src) >= MaxLazyDigits {
		return nil, fmt.Errorf("ring: basis conversion from %d primes (want 1..%d)", len(src), MaxLazyDigits-1)
	}
	bc := &BasisConverter{
		src:       src,
		inv:       make([]uint64, len(src)),
		invShoup:  make([]uint64, len(src)),
		dst:       dst,
		constants: make([][]uint64, len(dst)),
	}
	words := src[0].n * (len(src) + 1)
	bc.scratch.New = func() any {
		buf := make([]uint64, words)
		return &buf
	}
	// prodExcept(i, t) = (A/a_i) mod t; i = -1 gives A mod t.
	prodExcept := func(i int, t uint64) uint64 {
		p := uint64(1)
		for k, m := range src {
			if k != i {
				p = numth.MulMod(p, m.Q%t, t)
			}
		}
		return p
	}
	for i, m := range src {
		inv, err := numth.InvMod(prodExcept(i, m.Q), m.Q)
		if err != nil {
			return nil, fmt.Errorf("ring: basis primes are not pairwise coprime: %w", err)
		}
		bc.inv[i] = inv
		bc.invShoup[i] = numth.ShoupPrecomp(inv, m.Q)
	}
	for k, m := range dst {
		c := make([]uint64, len(src)+1)
		for i := range src {
			c[i] = prodExcept(i, m.Q)
		}
		c[len(src)] = numth.NegMod(prodExcept(-1, m.Q), m.Q)
		bc.constants[k] = c
	}
	return bc, nil
}

// ConvertNTT converts in — one coefficient-domain limb per source prime,
// only read — and writes, for every k with out[k] != nil, the NTT-domain
// residues modulo destination prime k into out[k] (len(out) may be shorter
// than the destination list). The forward transform runs right after each
// limb is produced, while it is still in cache; destination limbs are
// independent and fan out across the worker pool.
func (bc *BasisConverter) ConvertNTT(in [][]uint64, out [][]uint64) {
	s := len(bc.src)
	if len(in) != s || len(out) > len(bc.dst) {
		panic("ring: basis conversion operands do not match the converter's bases")
	}
	// terms holds, coefficient by coefficient, the s values y_i followed by
	// the overshoot count: the s+1 factors of one output coefficient sit side
	// by side for the per-destination loops.
	n, w := len(in[0]), s+1
	buf := bc.scratch.Get().(*[]uint64)
	terms := (*buf)[:n*w]
	for j := 0; j < n; j++ {
		t := terms[j*w : j*w+w]
		// Start the fixed-point sum at one half so its carries count
		// round(Σ y_i/a_i) rather than the floor.
		sum, carries := uint64(1)<<63, uint64(0)
		for i, m := range bc.src {
			y := numth.MulModShoup(in[i][j], bc.inv[i], bc.invShoup[i], m.Q)
			t[i] = y
			var c uint64
			sum, c = bits.Add64(sum, m.br.Frac64(y), 0)
			carries += c
		}
		t[s] = carries
	}
	if parallelLimbs(n, len(out)) {
		Parallel(len(out), func(k int) { bc.convertLimb(k, terms, out[k]) })
	} else {
		for k := range out {
			bc.convertLimb(k, terms, out[k])
		}
	}
	bc.scratch.Put(buf)
}

// convertLimb computes out[j] = Σ_i terms[j][i]·c_i mod t for destination k:
// the overshoot count rides along as one more term with constant −A, products
// accumulate in 128 bits, and each coefficient pays one Barrett reduction.
// A one-prime source a < 2t needs no product at all: the output is
// y − overshoot·a mod t, with y < 2t and an overshoot of 0 or 1, so two
// conditional subtractions reduce it.
func (bc *BasisConverter) convertLimb(k int, terms []uint64, out []uint64) {
	if out == nil {
		return
	}
	m := bc.dst[k]
	consts := bc.constants[k]
	w := len(consts)
	if t := m.Q; w == 2 && bc.src[0].Q < 2*t {
		aModT := t - consts[1] // consts[1] = −a mod t; aModT = t when t is a itself
		for j := range out {
			y := terms[2*j]
			if y >= t {
				y -= t
			}
			if terms[2*j+1] != 0 {
				if y < aModT {
					y += t
				}
				y -= aModT
			}
			out[j] = y
		}
		m.NTT(out)
		return
	}
	for j := range out {
		var hi, lo, c uint64
		for i, x := range terms[j*w : j*w+w] {
			ph, pl := bits.Mul64(x, consts[i])
			lo, c = bits.Add64(lo, pl, 0)
			hi += ph + c
		}
		if hi == 0 { // always, for a one-prime source: y·1 + overshoot·(−A)
			out[j] = m.br.ReduceWord(lo)
		} else {
			out[j] = m.br.Reduce(hi, lo)
		}
	}
	m.NTT(out)
}
