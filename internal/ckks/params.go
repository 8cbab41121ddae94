// Package ckks implements the RNS variant of the CKKS approximate
// homomorphic encryption scheme (Cheon-Kim-Kim-Song, with the full-RNS
// optimizations of Cheon-Han-Kim-Kim-Song). It plays the role that Microsoft
// SEAL plays for the EVA paper: encoding of complex/real vectors into ring
// elements, key generation, encryption, and the homomorphic evaluation
// operations used by the EVA executor (add, subtract, multiply, relinearize,
// rescale, modulus switch, and slot rotation).
//
// The implementation is self-contained (standard library only) and favors
// clarity over raw speed, but its cost profile matches real RNS-CKKS
// libraries: every operation scales with the ring degree N and the number of
// remaining RNS limbs, which is what makes the EVA compiler's
// parameter-minimizing optimizations measurable.
package ckks

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"slices"

	"eva/internal/numth"
	"eva/internal/ring"
)

// MaxLogModulusBits is the largest bit size accepted for a single chain prime
// (SEAL uses 60; see Constraint 4 in the paper).
const MaxLogModulusBits = 60

// heStandardBound maps log2(N) to the maximum total log2(Q*P) permitted for
// 128-bit security by the HomomorphicEncryption.org security standard (the
// table SEAL enforces). Exceeding the bound for a given N is rejected.
var heStandardBound = map[int]int{
	10: 27,
	11: 54,
	12: 109,
	13: 218,
	14: 438,
	15: 881,
	16: 1772,
	17: 3524,
}

// MaxLogQP returns the 128-bit-security bound on the total modulus bit count
// for ring degree 2^logN, or 0 if logN is unsupported.
func MaxLogQP(logN int) int { return heStandardBound[logN] }

// MinLogNFor returns the smallest supported log2(N) whose security bound
// admits a total modulus of logQP bits, or an error if none does.
func MinLogNFor(logQP int, minLogN int) (int, error) {
	for logN := minLogN; logN <= 17; logN++ {
		if bound, ok := heStandardBound[logN]; ok && logQP <= bound {
			return logN, nil
		}
	}
	return 0, fmt.Errorf("ckks: no supported ring degree admits a %d-bit modulus", logQP)
}

// Parameters describes a full RNS-CKKS parameter set: the ring degree, the
// modulus chain (in consumption order: Qi[len-1] is dropped by the first
// RESCALE), the special primes used for key switching, and the default scale.
//
// Key switching is the hybrid (grouped-digit) construction: the chain primes
// are grouped, from the base prime up, into digits of α consecutive primes,
// where α is the number of special primes. A parameter set with one special
// prime therefore decomposes per chain prime; one with as many special primes
// as chain primes has a single digit.
type Parameters struct {
	logN  int
	qi    []uint64
	logQi []int
	pi    []uint64
	logPi []int
	scale float64
	sigma float64

	ringQ *ring.Ring
	ringP *ring.Ring // nil without special primes

	// Key-switch tables, all precomputed so the relinearize/rotate hot path
	// never runs an extended-Euclid inverse or builds a table lazily:
	//   modUp[j][s-1]    converts the first s primes of digit j to every
	//                    chain prime followed by every special prime (a
	//                    ciphertext below the top level leaves its last digit
	//                    partial, hence one converter per prefix length);
	//   modDown          converts the special primes to every chain prime;
	//   pInvModQ[i]      = (P mod q_i)^{-1} mod q_i, P the special product;
	//   pInvShoupModQ[i] = Shoup quotient of pInvModQ[i];
	//   pModQ[i], pShoupModQ[i] = P mod q_i and its Shoup quotient, which lift
	//   a Q-only value into the extended basis (P·x is 0 modulo P);
	//   rescaleDown[l]   converts {q_l}∪P to q_0..q_{l-1} (l ≥ 1; nil at 0),
	//                    the one basis conversion of the rescale of a
	//                    deferred ciphertext, which divides by P·q_l at once;
	//   pqInvModQ[l][i], pqInvShoupModQ[l][i] = (P·q_l)^{-1} mod q_i (i < l)
	//                    and its Shoup quotient.
	modUp          [][]*ring.BasisConverter
	modDown        *ring.BasisConverter
	pInvModQ       []uint64
	pInvShoupModQ  []uint64
	pModQ          []uint64
	pShoupModQ     []uint64
	rescaleDown    []*ring.BasisConverter
	pqInvModQ      [][]uint64
	pqInvShoupModQ [][]uint64
}

// ParametersLiteral is the user-facing description from which Parameters are
// generated. LogQi lists the bit sizes of the chain primes with LogQi[0]
// being the base prime (consumed last) and LogQi[len-1] consumed by the
// first rescale. LogPi lists the bit sizes of the special key-switching
// primes; its length is the key-switch digit size, and it may be empty for a
// parameter set that never relinearizes or rotates. Key-switch noise scales
// with (largest digit product)/(special product), so the special primes
// should together be at least as large as any α consecutive chain primes.
type ParametersLiteral struct {
	LogN  int
	LogQi []int
	LogPi []int
	Scale float64
	Sigma float64 // standard deviation of the error distribution; 0 means the default 3.2

	// AllowInsecure disables the 128-bit security check on the total modulus
	// size. It exists for unit tests and scaled-down benchmarks that use small
	// rings; production parameter selection never sets it.
	AllowInsecure bool
}

// DefaultSigma is the standard deviation of the RLWE error distribution.
const DefaultSigma = 3.2

// NewParameters generates concrete primes for the literal and validates the
// result against the security standard.
func NewParameters(lit ParametersLiteral) (*Parameters, error) {
	if lit.LogN < 10 || lit.LogN > 17 {
		return nil, fmt.Errorf("ckks: logN %d out of supported range [10,17]", lit.LogN)
	}
	if len(lit.LogQi) == 0 {
		return nil, fmt.Errorf("ckks: at least one chain prime is required")
	}
	if lit.Scale <= 0 {
		return nil, fmt.Errorf("ckks: scale must be positive")
	}
	totalBits := 0
	for _, b := range lit.LogQi {
		if b < 20 || b > MaxLogModulusBits {
			return nil, fmt.Errorf("ckks: chain prime bit size %d out of range [20,%d]", b, MaxLogModulusBits)
		}
		totalBits += b
	}
	for _, b := range lit.LogPi {
		if b < 20 || b > numth.MaxModulusBits {
			return nil, fmt.Errorf("ckks: special prime bit size %d out of range [20,%d]", b, numth.MaxModulusBits)
		}
		totalBits += b
	}
	if len(lit.LogPi) > len(lit.LogQi) {
		return nil, fmt.Errorf("ckks: %d special primes for a chain of %d (a digit cannot exceed the chain)", len(lit.LogPi), len(lit.LogQi))
	}
	if bound, ok := heStandardBound[lit.LogN]; !lit.AllowInsecure && (!ok || totalBits > bound) {
		return nil, fmt.Errorf("ckks: total modulus of %d bits exceeds the %d-bit security bound for logN=%d (insecure parameters)", totalBits, heStandardBound[lit.LogN], lit.LogN)
	}
	sigma := lit.Sigma
	if sigma == 0 {
		sigma = DefaultSigma
	}

	// Generate distinct primes: the primes of one bit size are the largest
	// NTT primes of that size, handed out in decreasing order, chain first.
	all := slices.Concat(lit.LogQi, lit.LogPi)
	need := map[int]int{}
	for _, b := range all {
		need[b]++
	}
	pool := map[int][]uint64{}
	for _, b := range all {
		if pool[b] != nil {
			continue
		}
		ps, err := numth.GenerateNTTPrimes(b, lit.LogN, need[b], nil)
		if err != nil {
			return nil, err
		}
		pool[b] = ps
	}
	take := func(bitSizes []int) []uint64 {
		primes := make([]uint64, len(bitSizes))
		for i, b := range bitSizes {
			primes[i], pool[b] = pool[b][0], pool[b][1:]
		}
		return primes
	}
	qi, pi := take(lit.LogQi), take(lit.LogPi)

	ringQ, err := ring.NewRing(lit.LogN, qi)
	if err != nil {
		return nil, err
	}
	params := &Parameters{
		logN:  lit.LogN,
		qi:    qi,
		logQi: append([]int(nil), lit.LogQi...),
		pi:    pi,
		logPi: append([]int(nil), lit.LogPi...),
		scale: lit.Scale,
		sigma: sigma,
		ringQ: ringQ,
	}
	if len(pi) > 0 {
		if err := params.buildKeySwitchTables(); err != nil {
			return nil, err
		}
	}
	return params, nil
}

// buildKeySwitchTables builds the special-prime ring and the mod-up/mod-down
// conversion tables.
func (p *Parameters) buildKeySwitchTables() (err error) {
	if p.ringP, err = ring.NewRing(p.logN, p.pi); err != nil {
		return err
	}
	chain, special := p.ringQ.Moduli, p.ringP.Moduli
	extended := append(append([]*ring.Modulus(nil), chain...), special...)
	alpha := len(special)
	for lo := 0; lo < len(chain); lo += alpha {
		digit := chain[lo:min(lo+alpha, len(chain))]
		prefixes := make([]*ring.BasisConverter, len(digit))
		for s := range digit {
			if prefixes[s], err = ring.NewBasisConverter(digit[:s+1], extended); err != nil {
				return err
			}
		}
		p.modUp = append(p.modUp, prefixes)
	}
	if p.modDown, err = ring.NewBasisConverter(special, chain); err != nil {
		return err
	}
	p.pInvModQ = make([]uint64, len(chain))
	p.pInvShoupModQ = make([]uint64, len(chain))
	p.pModQ = make([]uint64, len(chain))
	p.pShoupModQ = make([]uint64, len(chain))
	for i, m := range chain {
		p.pModQ[i] = p.specialProductMod(m.Q)
		p.pShoupModQ[i] = numth.ShoupPrecomp(p.pModQ[i], m.Q)
		p.pInvModQ[i] = numth.MustInvMod(p.pModQ[i], m.Q)
		p.pInvShoupModQ[i] = numth.ShoupPrecomp(p.pInvModQ[i], m.Q)
	}
	p.rescaleDown = make([]*ring.BasisConverter, len(chain))
	p.pqInvModQ = make([][]uint64, len(chain))
	p.pqInvShoupModQ = make([][]uint64, len(chain))
	for l := 1; l < len(chain); l++ {
		src := append([]*ring.Modulus{chain[l]}, special...)
		if p.rescaleDown[l], err = ring.NewBasisConverter(src, chain[:l]); err != nil {
			return err
		}
		p.pqInvModQ[l] = make([]uint64, l)
		p.pqInvShoupModQ[l] = make([]uint64, l)
		for i, m := range chain[:l] {
			inv := numth.MustInvMod(numth.MulMod(p.pModQ[i], chain[l].Q%m.Q, m.Q), m.Q)
			p.pqInvModQ[l][i] = inv
			p.pqInvShoupModQ[l][i] = numth.ShoupPrecomp(inv, m.Q)
		}
	}
	return nil
}

// specialProductMod returns P mod q, P being the product of the special primes.
func (p *Parameters) specialProductMod(q uint64) uint64 {
	prod := uint64(1)
	for _, sp := range p.pi {
		prod = numth.MulMod(prod, sp%q, q)
	}
	return prod
}

// LogN returns log2 of the ring degree.
func (p *Parameters) LogN() int { return p.logN }

// N returns the ring degree.
func (p *Parameters) N() int { return 1 << uint(p.logN) }

// Slots returns the number of plaintext slots (N/2).
func (p *Parameters) Slots() int { return p.N() / 2 }

// MaxLevel returns the level of a fresh ciphertext (number of chain primes - 1).
func (p *Parameters) MaxLevel() int { return len(p.qi) - 1 }

// Qi returns the chain primes (consumption order: last element dropped first).
func (p *Parameters) Qi() []uint64 { return append([]uint64(nil), p.qi...) }

// LogQi returns the requested bit sizes of the chain primes.
func (p *Parameters) LogQi() []int { return append([]int(nil), p.logQi...) }

// Fingerprint identifies the parameter set by its ring degree and every chain
// and special prime (the chain length separates the two lists), so no
// ciphertext is chained into a ring that would misread its residues.
func (p *Parameters) Fingerprint() string {
	var buf []byte
	for _, w := range append(append([]uint64{uint64(p.logN), uint64(len(p.qi))}, p.qi...), p.pi...) {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:8])
}

// SpecialPrimes returns the key-switching special primes (empty if none).
func (p *Parameters) SpecialPrimes() []uint64 { return append([]uint64(nil), p.pi...) }

// DigitSize returns α, the number of consecutive chain primes one key-switch
// decomposition digit covers — which is the number of special primes (0 when
// the parameter set cannot key switch).
func (p *Parameters) DigitSize() int { return len(p.pi) }

// Digits returns the number of decomposition digits of a key switch at the
// given level, ⌈(level+1)/α⌉, or 0 for a parameter set without special primes.
func (p *Parameters) Digits(level int) int {
	if len(p.pi) == 0 {
		return 0
	}
	return (level + len(p.pi)) / len(p.pi)
}

// LogQP returns the total bit count of all chain primes plus the special primes.
func (p *Parameters) LogQP() int {
	total := p.LogQ()
	for _, b := range p.logPi {
		total += b
	}
	return total
}

// LogQ returns the total bit count of the chain primes (without the special prime).
func (p *Parameters) LogQ() int {
	total := 0
	for _, b := range p.logQi {
		total += b
	}
	return total
}

// DefaultScale returns the default encoding scale.
func (p *Parameters) DefaultScale() float64 { return p.scale }

// Sigma returns the error distribution standard deviation.
func (p *Parameters) Sigma() float64 { return p.sigma }

// RingQ returns the RNS ring over the chain primes.
func (p *Parameters) RingQ() *ring.Ring { return p.ringQ }

// RingP returns the RNS ring over the special primes, or nil if the parameter
// set has none (and therefore cannot relinearize or rotate).
func (p *Parameters) RingP() *ring.Ring { return p.ringP }

// QAtLevel returns the product of the chain primes up to the given level as a
// float64 (used for noise-budget style diagnostics only).
func (p *Parameters) QAtLevel(level int) float64 {
	q := 1.0
	for i := 0; i <= level && i < len(p.qi); i++ {
		q *= float64(p.qi[i])
	}
	return q
}

// GaloisElementForRotation returns the Galois automorphism exponent realizing
// a cyclic left rotation of the plaintext slots by k positions (k may be
// negative for right rotations).
func (p *Parameters) GaloisElementForRotation(k int) uint64 {
	slots := uint64(p.Slots())
	m := uint64(2 * p.N())
	kk := ((int64(k) % int64(slots)) + int64(slots)) % int64(slots)
	return numth.PowMod(5, uint64(kk), m)
}

// Equal reports whether two parameter sets use identical chain and special
// primes, degree and scale.
func (p *Parameters) Equal(o *Parameters) bool {
	return p.logN == o.logN && p.scale == o.scale && slices.Equal(p.qi, o.qi) && slices.Equal(p.pi, o.pi)
}

func (p *Parameters) String() string {
	return fmt.Sprintf("ckks.Parameters{logN=%d, logQP=%d, levels=%d, scale=2^%.0f}",
		p.logN, p.LogQP(), len(p.qi), math.Log2(p.scale))
}
