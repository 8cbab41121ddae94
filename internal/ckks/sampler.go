package ckks

import (
	crand "crypto/rand"
	"encoding/binary"
	"math"
	"math/rand/v2"

	"eva/internal/ring"
)

// PRNG is the source of randomness used for key generation, encryption and
// error sampling. Tests inject a deterministic instance; production code uses
// NewPRNG, which seeds a ChaCha8 generator from crypto/rand.
type PRNG struct {
	src *rand.ChaCha8 // the stream; uniform words are drawn from it directly
	rng *rand.Rand    // src, for the Gaussian draws
}

func newPRNG(seed [32]byte) *PRNG {
	src := rand.NewChaCha8(seed)
	return &PRNG{src: src, rng: rand.New(src)}
}

// NewPRNG returns a PRNG seeded from the operating system entropy source.
func NewPRNG() *PRNG {
	var seed [32]byte
	if _, err := crand.Read(seed[:]); err != nil {
		// crypto/rand failing is unrecoverable for a cryptographic library.
		panic("ckks: reading entropy: " + err.Error())
	}
	return newPRNG(seed)
}

// NewTestPRNG returns a deterministic PRNG for reproducible tests and benchmarks.
func NewTestPRNG(seed uint64) *PRNG {
	var s [32]byte
	binary.LittleEndian.PutUint64(s[:8], seed)
	binary.LittleEndian.PutUint64(s[8:16], seed^0x9e3779b97f4a7c15)
	return newPRNG(s)
}

// Uint64 returns a uniform 64-bit value.
func (p *PRNG) Uint64() uint64 { return p.src.Uint64() }

// NormFloat64 returns a normally distributed value with mean 0 and stddev 1.
func (p *PRNG) NormFloat64() float64 { return p.rng.NormFloat64() }

// sampler draws the polynomials needed by the scheme: uniform, ternary
// secrets, and discrete Gaussian errors.
type sampler struct {
	params *Parameters
	prng   *PRNG
}

func newSampler(params *Parameters, prng *PRNG) *sampler {
	if prng == nil {
		prng = NewPRNG()
	}
	return &sampler{params: params, prng: prng}
}

// uniform fills a polynomial of r at the given level with uniform residues,
// marked as NTT form (a uniform polynomial is uniform in either domain).
func (s *sampler) uniform(r *ring.Ring, level int) *ring.Poly {
	p := r.NewPoly(level)
	for i := 0; i <= level; i++ {
		br := r.Moduli[i].Barrett()
		bound := (^uint64(0) / br.Q) * br.Q
		for j := range p.Coeffs[i] {
			v := s.prng.Uint64()
			for v >= bound {
				v = s.prng.Uint64()
			}
			p.Coeffs[i][j] = br.ReduceWord(v)
		}
	}
	p.IsNTT = true
	return p
}

// seed draws the 32-byte seed of a derived stream (newPRNG).
func (s *sampler) seed() (out [32]byte) {
	for i := 0; i < len(out); i += 8 {
		binary.LittleEndian.PutUint64(out[i:], s.prng.Uint64())
	}
	return out
}

// ternarySigned samples a ternary polynomial with entries in {-1,0,1}
// (uniform), returned as signed coefficients for later reduction across
// bases.
func (s *sampler) ternarySigned() []int64 {
	n := s.params.N()
	out := make([]int64, n)
	for j := 0; j < n; j++ {
		switch s.prng.Uint64() % 3 {
		case 0:
			out[j] = -1
		case 1:
			out[j] = 0
		default:
			out[j] = 1
		}
	}
	return out
}

// gaussianSigned samples a discrete Gaussian polynomial with standard
// deviation params.Sigma(), truncated at 6 sigma.
func (s *sampler) gaussianSigned() []int64 {
	n := s.params.N()
	sigma := s.params.Sigma()
	bound := 6 * sigma
	out := make([]int64, n)
	for j := 0; j < n; j++ {
		v := s.prng.NormFloat64() * sigma
		for math.Abs(v) > bound {
			v = s.prng.NormFloat64() * sigma
		}
		out[j] = int64(math.Round(v))
	}
	return out
}

// signedToPoly reduces signed coefficients into a polynomial of r at the
// given level (coefficient domain). The same signed vector reduced over the
// chain ring and over the special-prime ring is one small polynomial over
// their union basis.
func (s *sampler) signedToPoly(r *ring.Ring, coeffs []int64, level int) *ring.Poly {
	p := r.NewPoly(level)
	for i := 0; i <= level; i++ {
		q := r.Moduli[i].Q
		for j, c := range coeffs {
			p.Coeffs[i][j] = reduceSigned(c, q)
		}
	}
	return p
}

// reduceSigned maps a signed integer to its residue in [0, q). Errors and
// secrets are far smaller than q, so the common case needs no division.
func reduceSigned(c int64, q uint64) uint64 {
	if c >= 0 {
		if uint64(c) < q {
			return uint64(c)
		}
		return uint64(c) % q
	}
	m := uint64(-c) // |c|, also for math.MinInt64
	if m >= q {
		if m %= q; m == 0 {
			return 0
		}
	}
	return q - m
}
