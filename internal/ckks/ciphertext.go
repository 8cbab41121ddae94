package ckks

import (
	"fmt"
	"math"

	"eva/internal/ring"
)

// Ciphertext is an RLWE ciphertext in NTT form. Freshly encrypted ciphertexts
// hold two polynomials; the product of two ciphertexts holds three until it
// is relinearized (Constraint 3 of the paper).
//
// A key switch whose mod-down is deferred (RotateHoisted, RelinearizeDeferred)
// gives the one other shape: a degree-1 ciphertext in the extended basis Q∪P,
// Value over the chain primes and ValueP over the special primes, P times the
// value plus the key's noise. Add, Sub, MulPlainAccumulate, Rescale and
// ModDown accept it — every other evaluator method refuses it, and it never
// leaves the evaluator.
type Ciphertext struct {
	Value  []*ring.Poly
	ValueP []*ring.Poly
	Scale  float64
	Level  int
}

// NewCiphertext allocates a zero ciphertext of the given degree+1 size at the
// given level and scale.
func NewCiphertext(params *Parameters, size, level int, scale float64) *Ciphertext {
	ct := &Ciphertext{Value: make([]*ring.Poly, size), Scale: scale, Level: level}
	for i := range ct.Value {
		ct.Value[i] = params.RingQ().NewPoly(level)
		ct.Value[i].IsNTT = true
	}
	return ct
}

// Degree returns the ciphertext degree (number of polynomials minus one).
func (ct *Ciphertext) Degree() int { return len(ct.Value) - 1 }

// Deferred reports a ciphertext whose mod-down is deferred: a value over Q∪P
// that only Add, Sub, MulPlainAccumulate, Rescale and ModDown accept.
func (ct *Ciphertext) Deferred() bool { return ct.ValueP != nil }

// Validate checks that the ciphertext is well-formed for the parameter set:
// plausible degree, level within the modulus chain, positive scale, and
// every polynomial in NTT form with exactly level+1 limbs of length N.
// Deserialized ciphertexts from untrusted sources must pass this check
// before being handed to an evaluator — the ring layer assumes well-shaped
// NTT operands and does not re-check them.
func (ct *Ciphertext) Validate(params *Parameters) error {
	if ct.Deferred() {
		return fmt.Errorf("ckks: ciphertext has a deferred mod-down")
	}
	if len(ct.Value) < 2 || len(ct.Value) > 3 {
		return fmt.Errorf("ckks: ciphertext has %d polynomials; want 2 or 3", len(ct.Value))
	}
	if ct.Level < 0 || ct.Level > params.MaxLevel() {
		return fmt.Errorf("ckks: ciphertext level %d outside chain [0,%d]", ct.Level, params.MaxLevel())
	}
	if !(ct.Scale > 0) {
		return fmt.Errorf("ckks: ciphertext scale %v is not positive", ct.Scale)
	}
	n := params.N()
	for i, p := range ct.Value {
		if p == nil {
			return fmt.Errorf("ckks: ciphertext polynomial %d is nil", i)
		}
		if !p.IsNTT {
			return fmt.Errorf("ckks: ciphertext polynomial %d is not in NTT form", i)
		}
		if len(p.Coeffs) != ct.Level+1 {
			return fmt.Errorf("ckks: ciphertext polynomial %d has %d limbs; level %d needs %d", i, len(p.Coeffs), ct.Level, ct.Level+1)
		}
		for j, limb := range p.Coeffs {
			if len(limb) != n {
				return fmt.Errorf("ckks: ciphertext polynomial %d limb %d has %d coefficients; ring degree is %d", i, j, len(limb), n)
			}
		}
	}
	return nil
}

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

// LogScale returns log2 of the ciphertext's scale — the unit the compiler's
// scale tracking (compile.Instr.LogScale) and the profiler's drift checks work
// in. Returns 0 for a non-positive (invalid) scale rather than -Inf/NaN so
// downstream aggregation stays finite.
func (ct *Ciphertext) LogScale() float64 {
	if !(ct.Scale > 0) {
		return 0
	}
	return math.Log2(ct.Scale)
}

// MemoryBytes returns an estimate of the ciphertext's memory footprint, used
// by the executor's memory accounting. A deferred ciphertext also holds its
// special-prime limbs.
func (ct *Ciphertext) MemoryBytes() int {
	total := 0
	for _, polys := range [2][]*ring.Poly{ct.Value, ct.ValueP} {
		for _, p := range polys {
			total += 8 * (p.Level() + 1) * len(p.Coeffs[0])
		}
	}
	return total
}

func (ct *Ciphertext) String() string {
	return fmt.Sprintf("Ciphertext{degree=%d, level=%d, scale=%g}", ct.Degree(), ct.Level, ct.Scale)
}
