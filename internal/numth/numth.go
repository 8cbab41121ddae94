// Package numth provides the number-theoretic building blocks used by the
// RNS-CKKS substrate: 64-bit modular arithmetic, Miller–Rabin primality
// testing, generation of NTT-friendly primes, and primitive roots of unity.
//
// All moduli handled by this package are at most 61 bits so that modular
// multiplication can be carried out with a single 128-bit product
// (math/bits.Mul64 / Div64) without overflow anywhere in the pipeline.
package numth

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
)

// MaxModulusBits is the largest bit size allowed for a coefficient modulus
// prime. SEAL uses 60-bit primes at most; we allow 61 to leave headroom for
// intermediate sums while still fitting comfortably in uint64 arithmetic.
const MaxModulusBits = 61

// AddMod returns (a + b) mod m. It requires a, b < m.
func AddMod(a, b, m uint64) uint64 {
	s := a + b
	if s >= m || s < a {
		s -= m
	}
	return s
}

// SubMod returns (a - b) mod m. It requires a, b < m.
func SubMod(a, b, m uint64) uint64 {
	if a >= b {
		return a - b
	}
	return a + m - b
}

// NegMod returns (-a) mod m. It requires a < m.
func NegMod(a, m uint64) uint64 {
	if a == 0 {
		return 0
	}
	return m - a
}

// MulMod returns (a * b) mod m using a full 128-bit intermediate product.
func MulMod(a, b, m uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	_, rem := bits.Div64(hi%m, lo, m)
	return rem
}

// PowMod returns a^e mod m by square-and-multiply.
func PowMod(a, e, m uint64) uint64 {
	if m == 1 {
		return 0
	}
	result := uint64(1)
	base := a % m
	for e > 0 {
		if e&1 == 1 {
			result = MulMod(result, base, m)
		}
		base = MulMod(base, base, m)
		e >>= 1
	}
	return result
}

// InvMod returns the multiplicative inverse of a modulo m (m prime), or an
// error if a is zero modulo m.
func InvMod(a, m uint64) (uint64, error) {
	if a%m == 0 {
		return 0, fmt.Errorf("numth: %d has no inverse modulo %d", a, m)
	}
	// Fermat's little theorem: a^(m-2) mod m for prime m.
	return PowMod(a, m-2, m), nil
}

// MustInvMod is InvMod but panics on error. It is intended for internal use
// where the caller guarantees invertibility (e.g. inverting chain primes).
func MustInvMod(a, m uint64) uint64 {
	inv, err := InvMod(a, m)
	if err != nil {
		panic(err)
	}
	return inv
}

// IsPrime reports whether n is prime using a deterministic Miller–Rabin test
// with a witness set that is exact for all 64-bit integers.
func IsPrime(n uint64) bool {
	if n < 2 {
		return false
	}
	for _, p := range []uint64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37} {
		if n == p {
			return true
		}
		if n%p == 0 {
			return false
		}
	}
	// Write n-1 as d * 2^r.
	d := n - 1
	r := 0
	for d&1 == 0 {
		d >>= 1
		r++
	}
	// These witnesses are sufficient for all n < 2^64.
	for _, a := range []uint64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37} {
		x := PowMod(a, d, n)
		if x == 1 || x == n-1 {
			continue
		}
		composite := true
		for i := 0; i < r-1; i++ {
			x = MulMod(x, x, n)
			if x == n-1 {
				composite = false
				break
			}
		}
		if composite {
			return false
		}
	}
	return true
}

// GenerateNTTPrimes returns count distinct primes p with the requested bit
// size satisfying p ≡ 1 (mod 2N), which is the condition for the negacyclic
// NTT of length N to exist modulo p. Primes are returned in decreasing order
// starting just below 2^bitSize. The skip set excludes primes already in use
// (e.g. by another part of the modulus chain).
func GenerateNTTPrimes(bitSize, logN, count int, skip map[uint64]bool) ([]uint64, error) {
	if bitSize < 20 || bitSize > MaxModulusBits {
		return nil, fmt.Errorf("numth: prime bit size %d out of range [20,%d]", bitSize, MaxModulusBits)
	}
	if logN < 1 || logN > 17 {
		return nil, fmt.Errorf("numth: logN %d out of range [1,17]", logN)
	}
	if count <= 0 {
		return nil, errors.New("numth: prime count must be positive")
	}
	m := uint64(2) << uint(logN) // 2N
	upper := uint64(1) << uint(bitSize)
	// Start at the largest multiple of 2N below 2^bitSize, plus 1.
	candidate := (upper-1)/m*m + 1
	primes := make([]uint64, 0, count)
	lower := uint64(1) << uint(bitSize-1)
	for candidate > lower {
		if candidate < upper && IsPrime(candidate) && !skip[candidate] {
			primes = append(primes, candidate)
			if len(primes) == count {
				return primes, nil
			}
		}
		if candidate < m {
			break
		}
		candidate -= m
	}
	return nil, fmt.Errorf("numth: could not find %d NTT primes of %d bits for logN=%d", count, bitSize, logN)
}

// PrimitiveRoot returns the least generator of the multiplicative group
// modulo the prime p: the least g whose order is p-1, tested against each
// distinct prime factor of p-1.
func PrimitiveRoot(p uint64) (uint64, error) {
	if !IsPrime(p) {
		return 0, fmt.Errorf("numth: %d is not prime", p)
	}
	phi := p - 1
	factors := distinctFactors(phi)
	for g := uint64(2); g < p; g++ {
		ok := true
		for _, f := range factors {
			if PowMod(g, phi/f, p) == 1 {
				ok = false
				break
			}
		}
		if ok {
			return g, nil
		}
	}
	return 0, fmt.Errorf("numth: no primitive root found modulo %d", p)
}

// PrimitiveNthRoot returns g^((p-1)/n) mod the prime p, where g is the least
// generator of the group (PrimitiveRoot). That is a primitive n-th root of
// unity, but not in general the least one; every NTT table, key and stored
// ciphertext is built on this particular root, so it must not change. n must
// divide p-1 and be a power of two.
func PrimitiveNthRoot(n, p uint64) (uint64, error) {
	if n == 0 || (p-1)%n != 0 {
		return 0, fmt.Errorf("numth: %d does not divide %d-1", n, p)
	}
	g, err := PrimitiveRoot(p)
	if err != nil {
		return 0, err
	}
	root := PowMod(g, (p-1)/n, p)
	// root is a primitive n-th root; verify.
	if PowMod(root, n/2, p) == 1 {
		return 0, fmt.Errorf("numth: derived root of order %d is not primitive modulo %d", n, p)
	}
	return root, nil
}

// smallPrimes are divided out of n before distinctFactors turns to rho.
var smallPrimes = []uint64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61}

// distinctFactors returns the distinct prime factors of n > 0 in increasing
// order: the small primes by division, the cofactor split by Pollard–Brent
// rho until IsPrime accepts every part.
func distinctFactors(n uint64) []uint64 {
	var factors []uint64
	for _, p := range smallPrimes {
		if n%p == 0 {
			factors = append(factors, p)
			for n%p == 0 {
				n /= p
			}
		}
	}
	parts := []uint64{n}
	for len(parts) > 0 {
		m := parts[len(parts)-1]
		parts = parts[:len(parts)-1]
		switch {
		case m == 1 || slices.Contains(factors, m):
		case IsPrime(m):
			factors = append(factors, m)
		default:
			d := rho(m)
			parts = append(parts, d, m/d)
		}
	}
	slices.Sort(factors)
	return factors
}

// rho returns a nontrivial divisor of the odd composite n, which has no
// prime factor below 64, by Brent's variant of Pollard's rho: the walk
// x -> x²+c doubles its stride, the differences are multiplied together 128
// at a time before one gcd, and a batch that overshoots to gcd n is replayed
// one step at a time. A walk that only finds n itself restarts with the next c.
func rho(n uint64) uint64 {
	const batch = 128
	br := NewBarrett(n)
	for c := uint64(1); ; c++ {
		f := func(x uint64) uint64 { return AddMod(br.MulMod(x, x), c, n) }
		x, y, ys, acc, g := uint64(0), uint64(2), uint64(0), uint64(1), uint64(1)
		for r := 1; g == 1; r *= 2 {
			x = y
			for range r {
				y = f(y)
			}
			for k := 0; k < r && g == 1; k += batch {
				ys = y
				for range min(batch, r-k) {
					y = f(y)
					acc = br.MulMod(acc, max(x, y)-min(x, y))
				}
				g = gcd(acc, n)
			}
		}
		if g == n {
			for g = 1; g == 1; {
				ys = f(ys)
				g = gcd(max(x, ys)-min(x, ys), n)
			}
		}
		if g != n {
			return g
		}
	}
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// BitReverse returns the bit-reversal of x within width bits.
func BitReverse(x, width uint64) uint64 {
	return uint64(bits.Reverse64(x) >> (64 - width))
}

// CenteredRem maps a residue x modulo q to its centered representative in
// (-q/2, q/2], returned as a signed integer.
func CenteredRem(x, q uint64) int64 {
	if x > q/2 {
		return int64(x) - int64(q)
	}
	return int64(x)
}
