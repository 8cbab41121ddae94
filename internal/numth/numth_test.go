package numth

import (
	"math/big"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestAddSubNegMod(t *testing.T) {
	const m = uint64(1<<61 - 1)
	cases := []struct{ a, b uint64 }{
		{0, 0}, {1, 1}, {m - 1, m - 1}, {m - 1, 1}, {m / 2, m / 2}, {12345, 67890},
	}
	for _, c := range cases {
		want := new(big.Int).Mod(new(big.Int).Add(big.NewInt(int64(c.a)), big.NewInt(int64(c.b))), big.NewInt(int64(m))).Uint64()
		if got := AddMod(c.a, c.b, m); got != want {
			t.Errorf("AddMod(%d,%d) = %d, want %d", c.a, c.b, got, want)
		}
		if got := SubMod(AddMod(c.a, c.b, m), c.b, m); got != c.a {
			t.Errorf("SubMod(AddMod(a,b),b) = %d, want %d", got, c.a)
		}
		if got := AddMod(c.a, NegMod(c.a, m), m); got != 0 {
			t.Errorf("a + (-a) = %d, want 0", got)
		}
	}
}

func TestMulModMatchesBigInt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	mods := []uint64{(1 << 61) - 1, 1152921504606584833, 65537, 2147483647}
	for _, m := range mods {
		bm := new(big.Int).SetUint64(m)
		for i := 0; i < 200; i++ {
			a := rng.Uint64() % m
			b := rng.Uint64() % m
			want := new(big.Int).Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
			want.Mod(want, bm)
			if got := MulMod(a, b, m); got != want.Uint64() {
				t.Fatalf("MulMod(%d,%d,%d) = %d, want %d", a, b, m, got, want.Uint64())
			}
		}
	}
}

func TestPowModProperties(t *testing.T) {
	const m = uint64(1152921504606584833) // 60-bit NTT prime-like value (prime)
	if !IsPrime(m) {
		t.Fatalf("expected %d to be prime", m)
	}
	f := func(a uint64, e uint8) bool {
		a %= m
		// a^(e1+e2) == a^e1 * a^e2
		e1 := uint64(e) / 2
		e2 := uint64(e) - e1
		lhs := PowMod(a, uint64(e), m)
		rhs := MulMod(PowMod(a, e1, m), PowMod(a, e2, m), m)
		return lhs == rhs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestInvMod(t *testing.T) {
	const m = uint64(1152921504606584833)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		a := rng.Uint64()%(m-1) + 1
		inv, err := InvMod(a, m)
		if err != nil {
			t.Fatalf("InvMod(%d): %v", a, err)
		}
		if got := MulMod(a, inv, m); got != 1 {
			t.Fatalf("a * a^-1 = %d, want 1", got)
		}
	}
	if _, err := InvMod(0, m); err == nil {
		t.Error("expected error inverting 0")
	}
}

func TestIsPrimeKnownValues(t *testing.T) {
	primes := []uint64{2, 3, 5, 7, 61, 65537, 2147483647, (1 << 61) - 1}
	composites := []uint64{0, 1, 4, 6, 561, 1105, 65536, 2147483649, (1 << 61) + 1}
	for _, p := range primes {
		if !IsPrime(p) {
			t.Errorf("IsPrime(%d) = false, want true", p)
		}
	}
	for _, c := range composites {
		if IsPrime(c) {
			t.Errorf("IsPrime(%d) = true, want false", c)
		}
	}
}

func TestGenerateNTTPrimes(t *testing.T) {
	for _, logN := range []int{11, 12, 13, 14} {
		for _, bitSize := range []int{30, 40, 50, 60} {
			primes, err := GenerateNTTPrimes(bitSize, logN, 4, nil)
			if err != nil {
				t.Fatalf("GenerateNTTPrimes(%d, %d): %v", bitSize, logN, err)
			}
			if len(primes) != 4 {
				t.Fatalf("got %d primes, want 4", len(primes))
			}
			m := uint64(2) << uint(logN)
			seen := map[uint64]bool{}
			for _, p := range primes {
				if !IsPrime(p) {
					t.Errorf("%d is not prime", p)
				}
				if p%m != 1 {
					t.Errorf("%d is not 1 mod 2N", p)
				}
				if bits := bitLen(p); bits != bitSize {
					t.Errorf("prime %d has %d bits, want %d", p, bits, bitSize)
				}
				if seen[p] {
					t.Errorf("duplicate prime %d", p)
				}
				seen[p] = true
			}
		}
	}
}

func TestGenerateNTTPrimesSkip(t *testing.T) {
	first, err := GenerateNTTPrimes(40, 12, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	skip := map[uint64]bool{first[0]: true, first[1]: true}
	second, err := GenerateNTTPrimes(40, 12, 2, skip)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range second {
		if skip[p] {
			t.Errorf("prime %d should have been skipped", p)
		}
	}
}

func TestGenerateNTTPrimesErrors(t *testing.T) {
	if _, err := GenerateNTTPrimes(10, 12, 1, nil); err == nil {
		t.Error("expected error for tiny bit size")
	}
	if _, err := GenerateNTTPrimes(62, 12, 1, nil); err == nil {
		t.Error("expected error for oversized bit size")
	}
	if _, err := GenerateNTTPrimes(30, 0, 1, nil); err == nil {
		t.Error("expected error for logN=0")
	}
	if _, err := GenerateNTTPrimes(30, 12, 0, nil); err == nil {
		t.Error("expected error for count=0")
	}
}

func TestPrimitiveNthRoot(t *testing.T) {
	primes, err := GenerateNTTPrimes(45, 13, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := uint64(1) << 14 // 2N for logN=13
	for _, p := range primes {
		root, err := PrimitiveNthRoot(n, p)
		if err != nil {
			t.Fatalf("PrimitiveNthRoot(%d, %d): %v", n, p, err)
		}
		if PowMod(root, n, p) != 1 {
			t.Errorf("root^n != 1 mod %d", p)
		}
		if PowMod(root, n/2, p) == 1 {
			t.Errorf("root is not a primitive %d-th root mod %d", n, p)
		}
	}
}

func TestPrimitiveRootErrors(t *testing.T) {
	if _, err := PrimitiveRoot(100); err == nil {
		t.Error("expected error for composite modulus")
	}
	if _, err := PrimitiveNthRoot(7, 65537); err == nil {
		t.Error("expected error when n does not divide p-1")
	}
}

// trialDivisionFactors is the trial-division factorization distinctFactors
// replaced, kept as the oracle its factor sets are pinned against.
func trialDivisionFactors(n uint64) []uint64 {
	var factors []uint64
	for f := uint64(2); f*f <= n; f += 1 + f&1 {
		if n%f == 0 {
			factors = append(factors, f)
			for n%f == 0 {
				n /= f
			}
		}
	}
	if n > 1 {
		factors = append(factors, n)
	}
	return factors
}

// TestDistinctFactorsMatchTrialDivision pins the factor sets of p-1, and
// the 2N-th root built on them, against trial division for 12 NTT primes of
// every (logN, bits) shape the ring accepts (all of them, where a shape has
// fewer).
func TestDistinctFactorsMatchTrialDivision(t *testing.T) {
	checked := 0
	for logN := 10; logN <= 17; logN++ {
		for bitSize := 20; bitSize <= 60; bitSize += 5 {
			used := map[uint64]bool{}
			for range 12 {
				ps, err := GenerateNTTPrimes(bitSize, logN, 1, used)
				if err != nil {
					break
				}
				p := ps[0]
				used[p] = true
				want := trialDivisionFactors(p - 1)
				if got := distinctFactors(p - 1); !slices.Equal(got, want) {
					t.Fatalf("distinctFactors(%d) = %v, trial division %v", p-1, got, want)
				}
				psi, err := PrimitiveNthRoot(2<<logN, p)
				if err != nil {
					t.Fatal(err)
				}
				if oracle := PowMod(leastGenerator(p, want), (p-1)>>(logN+1), p); psi != oracle {
					t.Fatalf("p=%d logN=%d: psi %d, oracle %d", p, logN, psi, oracle)
				}
				checked++
			}
		}
	}
	if checked < 800 {
		t.Fatalf("only %d primes checked", checked)
	}
}

// leastGenerator is the least g of order p-1, given p-1's prime factors.
func leastGenerator(p uint64, factors []uint64) uint64 {
	for g := uint64(2); ; g++ {
		if !slices.ContainsFunc(factors, func(f uint64) bool { return PowMod(g, (p-1)/f, p) == 1 }) {
			return g
		}
	}
}

// TestPrimitiveNthRootPinned pins the root of a prime whose p-1 has a 47-bit
// prime cofactor (p-1 = 2^14·5·112589990684257) to the value every stored
// key and ciphertext at logN 10 was built on.
func TestPrimitiveNthRootPinned(t *testing.T) {
	const p = 1152921504606791681
	psi, err := PrimitiveNthRoot(2048, p)
	if err != nil {
		t.Fatal(err)
	}
	if psi != 581990559703064139 {
		t.Fatalf("psi = %d, want 581990559703064139", psi)
	}
	if got, want := distinctFactors(p-1), []uint64{2, 5, 112589990684257}; !slices.Equal(got, want) {
		t.Fatalf("distinctFactors(p-1) = %v, want %v", got, want)
	}
}

func TestDistinctFactorsRho(t *testing.T) {
	const p32, q32 = 4294967291, 4294967279 // the two largest primes below 2^32
	cases := []struct {
		n    uint64
		want []uint64
	}{
		{p32 * q32, []uint64{q32, p32}},
		{p32 * p32, []uint64{p32}},
		{1 << 63, []uint64{2}},
		{2 * 3 * 67 * 67 * 71 * 1000003, []uint64{2, 3, 67, 71, 1000003}},
		{1, nil},
		{61, []uint64{61}},
	}
	for _, c := range cases {
		if got := distinctFactors(c.n); !slices.Equal(got, c.want) {
			t.Errorf("distinctFactors(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestCenteredRem(t *testing.T) {
	const q = uint64(17)
	cases := map[uint64]int64{0: 0, 1: 1, 8: 8, 9: -8, 16: -1}
	for x, want := range cases {
		if got := CenteredRem(x, q); got != want {
			t.Errorf("CenteredRem(%d, %d) = %d, want %d", x, q, got, want)
		}
	}
}

func TestBitReverse(t *testing.T) {
	if got := BitReverse(1, 3); got != 4 {
		t.Errorf("BitReverse(1,3) = %d, want 4", got)
	}
	if got := BitReverse(3, 4); got != 12 {
		t.Errorf("BitReverse(3,4) = %d, want 12", got)
	}
	// Involution property.
	f := func(x uint16) bool {
		v := uint64(x)
		return BitReverse(BitReverse(v, 16), 16) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func bitLen(x uint64) int {
	n := 0
	for x > 0 {
		n++
		x >>= 1
	}
	return n
}

func BenchmarkPrimitiveNthRoot(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := PrimitiveNthRoot(2048, 1152921504606791681); err != nil {
			b.Fatal(err)
		}
	}
}
