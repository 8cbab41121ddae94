package ckks

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"math/cmplx"

	"eva/internal/numth"
	"eva/internal/ring"
)

// Plaintext is an unencrypted ring element carrying a scale and a level, as
// produced by the Encoder and consumed by the Encryptor and by
// plaintext-ciphertext operations.
type Plaintext struct {
	Value *ring.Poly
	// ValueP is the same integer polynomial over every special prime, in NTT
	// form, for a plaintext EncodeExtended made; nil otherwise. Only
	// MulPlainAccumulate reads it, to multiply deferred ciphertexts.
	ValueP *ring.Poly
	Scale  float64
	Level  int
}

// CopyNew returns a deep copy of the plaintext.
func (p *Plaintext) CopyNew() *Plaintext {
	out := &Plaintext{Value: p.Value.CopyNew(), Scale: p.Scale, Level: p.Level}
	if p.ValueP != nil {
		out.ValueP = p.ValueP.CopyNew()
	}
	return out
}

// Encoder maps vectors of complex (or real) numbers to and from CKKS
// plaintexts using the canonical embedding of the 2N-th cyclotomic field
// (the "special FFT" over the orbit of 5 modulo 2N).
type Encoder struct {
	params   *Parameters
	m        int          // 2N
	rotGroup []int        // 5^i mod 2N for i < slots
	roots    []complex128 // exp(2*pi*i*j/m) for j <= m
}

// NewEncoder builds an encoder for the given parameters.
func NewEncoder(params *Parameters) *Encoder {
	slots := params.Slots()
	m := 2 * params.N()
	e := &Encoder{
		params:   params,
		m:        m,
		rotGroup: make([]int, slots),
		roots:    make([]complex128, m+1),
	}
	fivePow := 1
	for i := 0; i < slots; i++ {
		e.rotGroup[i] = fivePow
		fivePow = (fivePow * 5) % m
	}
	for j := 0; j <= m; j++ {
		angle := 2 * math.Pi * float64(j) / float64(m)
		e.roots[j] = cmplx.Rect(1, angle)
	}
	return e
}

// Slots returns the number of plaintext slots.
func (e *Encoder) Slots() int { return e.params.Slots() }

func arrayBitReverse(vals []complex128) {
	n := len(vals)
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			vals[i], vals[j] = vals[j], vals[i]
		}
	}
}

// fftSpecial evaluates the canonical embedding (coefficients -> slot values).
func (e *Encoder) fftSpecial(vals []complex128) {
	n := len(vals)
	arrayBitReverse(vals)
	for length := 2; length <= n; length <<= 1 {
		for i := 0; i < n; i += length {
			lenh := length >> 1
			lenq := length << 2
			for j := 0; j < lenh; j++ {
				idx := (e.rotGroup[j] % lenq) * e.m / lenq
				u := vals[i+j]
				v := vals[i+j+lenh] * e.roots[idx]
				vals[i+j] = u + v
				vals[i+j+lenh] = u - v
			}
		}
	}
}

// fftSpecialInv inverts fftSpecial (slot values -> coefficients).
func (e *Encoder) fftSpecialInv(vals []complex128) {
	n := len(vals)
	for length := n; length >= 2; length >>= 1 {
		for i := 0; i < n; i += length {
			lenh := length >> 1
			lenq := length << 2
			for j := 0; j < lenh; j++ {
				idx := (lenq - (e.rotGroup[j] % lenq)) * e.m / lenq
				u := vals[i+j] + vals[i+j+lenh]
				v := (vals[i+j] - vals[i+j+lenh]) * e.roots[idx]
				vals[i+j] = u
				vals[i+j+lenh] = v
			}
		}
	}
	arrayBitReverse(vals)
	inv := complex(1/float64(n), 0)
	for i := range vals {
		vals[i] *= inv
	}
}

// Encode encodes up to Slots() real values at the given scale and level.
// Shorter inputs are replicated to fill all slots (matching EVA's treatment
// of inputs whose vector size divides the slot count); the input length must
// be a power of two.
func (e *Encoder) Encode(values []float64, scale float64, level int) (*Plaintext, error) {
	return e.encode(values, scale, level, false)
}

// EncodeExtended is Encode that also encodes the values over the special
// primes (Plaintext.ValueP), so MulPlainAccumulate can multiply deferred
// rotations by it. The parameters must have special primes.
func (e *Encoder) EncodeExtended(values []float64, scale float64, level int) (*Plaintext, error) {
	if e.params.RingP() == nil {
		return nil, fmt.Errorf("ckks: extended encoding requires a special prime")
	}
	return e.encode(values, scale, level, true)
}

// encode is Encode, extended over the special primes when asked.
func (e *Encoder) encode(values []float64, scale float64, level int, extended bool) (*Plaintext, error) {
	slots := e.params.Slots()
	if n := len(values); n == 0 || n > slots {
		return nil, fmt.Errorf("ckks: encoding %d values into %d slots", n, slots)
	} else if n&(n-1) != 0 {
		return nil, fmt.Errorf("ckks: input length %d is not a power of two", n)
	}
	if level < 0 || level > e.params.MaxLevel() {
		return nil, fmt.Errorf("ckks: level %d out of range [0,%d]", level, e.params.MaxLevel())
	}
	if scale <= 0 {
		return nil, fmt.Errorf("ckks: scale must be positive")
	}
	buf := make([]complex128, slots)
	for i := range buf {
		buf[i] = complex(values[i%len(values)], 0)
	}
	e.fftSpecialInv(buf)

	r := e.params.RingQ()
	pt := &Plaintext{Value: r.NewPoly(level), Scale: scale, Level: level}
	var rp *ring.Ring
	if extended {
		rp = e.params.RingP()
		pt.ValueP = rp.NewPoly(rp.MaxLevel())
	}
	for j := 0; j < slots; j++ {
		for k, x := range [2]float64{real(buf[j]), imag(buf[j])} {
			encodeCoefficient(x*scale, j+k*slots, pt.Value, r)
			if extended {
				encodeCoefficient(x*scale, j+k*slots, pt.ValueP, rp)
			}
		}
	}
	r.NTT(pt.Value)
	if extended {
		rp.NTT(pt.ValueP)
	}
	return pt, nil
}

// encodeCoefficient rounds x to the nearest integer and stores its residues
// into coefficient idx of every limb of pt. Values beyond the int64 range are
// handled exactly through big.Float.
func encodeCoefficient(x float64, idx int, pt *ring.Poly, r *ring.Ring) {
	if math.Abs(x) < 9.0e18 {
		c := int64(math.Round(x))
		for i := range pt.Coeffs {
			pt.Coeffs[i][idx] = reduceSigned(c, r.Moduli[i].Q)
		}
		return
	}
	// Exact path for very large scaled values.
	bf := new(big.Float).SetPrec(256).SetFloat64(x)
	bi, _ := bf.Int(nil)
	for i := range pt.Coeffs {
		q := new(big.Int).SetUint64(r.Moduli[i].Q)
		res := new(big.Int).Mod(bi, q)
		pt.Coeffs[i][idx] = res.Uint64()
	}
}

// DecodeComplex decodes a plaintext back into its slot values.
func (e *Encoder) DecodeComplex(pt *Plaintext) []complex128 {
	r := e.params.RingQ()
	value := pt.Value
	if value.IsNTT {
		value = value.CopyNew()
		r.InvNTT(value)
	}
	level := value.Level()
	slots := e.params.Slots()

	coeffs := e.centeredCoeffs(value, level)
	buf := make([]complex128, slots)
	scale := pt.Scale
	for j := 0; j < slots; j++ {
		buf[j] = complex(coeffs[j]/scale, coeffs[j+slots]/scale)
	}
	e.fftSpecial(buf)
	return buf
}

// Decode decodes a plaintext and returns the real parts of its slot values.
func (e *Encoder) Decode(pt *Plaintext) []float64 {
	cv := e.DecodeComplex(pt)
	out := make([]float64, len(cv))
	for i, c := range cv {
		out[i] = real(c)
	}
	return out
}

// centeredCoeffs CRT-reconstructs each coefficient of value as the centred
// integer modulo the product Q of its limbs at the given level, in (−Q/2,
// Q/2], and returns it correctly rounded to float64. One limb is its centred
// residue; two take Garner's reconstruction in 128 bits (centredTwoLimbs);
// more take math/big (centeredBigCoeffs), the oracle the fast paths are held
// to bit for bit.
func (e *Encoder) centeredCoeffs(value *ring.Poly, level int) []float64 {
	r := e.params.RingQ()
	out := make([]float64, e.params.N())
	switch level {
	case 0:
		q := r.Moduli[0].Q
		for j, x := range value.Coeffs[0] {
			if x > q>>1 {
				out[j] = -float64(q - x)
			} else {
				out[j] = float64(x)
			}
		}
	case 1:
		q0, q1 := r.Moduli[0].Q, r.Moduli[1].Q
		inv := numth.MustInvMod(q0%q1, q1)
		invShoup := numth.ShoupPrecomp(inv, q1)
		br1 := r.Moduli[1].Barrett()
		qHi, qLo := bits.Mul64(q0, q1)
		halfHi, halfLo := qHi>>1, qLo>>1|qHi<<63
		for j := range out {
			a0, a1 := value.Coeffs[0][j], value.Coeffs[1][j]
			// x = a0 + q0·k with k = (a1 − a0)·q0⁻¹ mod q1 is the residue
			// in [0, Q).
			k := numth.MulModShoup(numth.SubMod(a1, br1.ReduceWord(a0), q1), inv, invShoup, q1)
			hi, lo := bits.Mul64(q0, k)
			var c uint64
			lo, c = bits.Add64(lo, a0, 0)
			hi += c
			if hi > halfHi || (hi == halfHi && lo > halfLo) {
				hi, lo = sub128(qHi, qLo, hi, lo)
				out[j] = -uint128ToFloat(hi, lo)
			} else {
				out[j] = uint128ToFloat(hi, lo)
			}
		}
	default:
		for j, c := range e.centeredBigCoeffs(value, level) {
			out[j], _ = new(big.Float).SetInt(c).Float64()
		}
	}
	return out
}

// sub128 returns (aHi, aLo) − (bHi, bLo) for a ≥ b.
func sub128(aHi, aLo, bHi, bLo uint64) (hi, lo uint64) {
	lo, borrow := bits.Sub64(aLo, bLo, 0)
	hi, _ = bits.Sub64(aHi, bHi, borrow)
	return hi, lo
}

// uint128ToFloat converts hi·2^64 + lo to the nearest float64, ties to even:
// the top 64 bits, with a sticky bit for anything nonzero below them, round
// once in the conversion, and math.Ldexp scales them back exactly.
func uint128ToFloat(hi, lo uint64) float64 {
	if hi == 0 {
		return float64(lo)
	}
	shift := 64 - bits.LeadingZeros64(hi)
	top := hi<<(64-shift) | lo>>shift
	if lo<<(64-shift) != 0 {
		top |= 1
	}
	return math.Ldexp(float64(top), shift)
}

// centeredBigCoeffs CRT-reconstructs each coefficient of value as a centered
// big integer modulo the product of the limbs at the given level.
func (e *Encoder) centeredBigCoeffs(value *ring.Poly, level int) []*big.Int {
	r := e.params.RingQ()
	n := e.params.N()

	bigQ := big.NewInt(1)
	for i := 0; i <= level; i++ {
		bigQ.Mul(bigQ, new(big.Int).SetUint64(r.Moduli[i].Q))
	}
	// CRT basis: for each limb, (Q/qi) * ((Q/qi)^-1 mod qi).
	basis := make([]*big.Int, level+1)
	for i := 0; i <= level; i++ {
		qi := new(big.Int).SetUint64(r.Moduli[i].Q)
		qHat := new(big.Int).Div(bigQ, qi)
		qHatInv := new(big.Int).ModInverse(new(big.Int).Mod(qHat, qi), qi)
		basis[i] = new(big.Int).Mul(qHat, qHatInv)
	}
	half := new(big.Int).Rsh(bigQ, 1)
	out := make([]*big.Int, n)
	acc := new(big.Int)
	term := new(big.Int)
	for j := 0; j < n; j++ {
		acc.SetInt64(0)
		for i := 0; i <= level; i++ {
			term.Mul(basis[i], new(big.Int).SetUint64(value.Coeffs[i][j]))
			acc.Add(acc, term)
		}
		acc.Mod(acc, bigQ)
		c := new(big.Int).Set(acc)
		if c.Cmp(half) > 0 {
			c.Sub(c, bigQ)
		}
		out[j] = c
	}
	return out
}
