package numth

import (
	"math/bits"
	"math/rand"
	"testing"
)

// testModuli returns a spread of NTT-prime-shaped odd moduli, from the
// smallest supported sizes up to the 61-bit ceiling, plus adversarial odd
// values (not prime, near powers of two) that the reductions must still
// handle: Barrett and Shoup only require oddness, not primality.
func testModuli(t testing.TB) []uint64 {
	t.Helper()
	var qs []uint64
	for _, bitsize := range []int{20, 30, 45, 55, 61} {
		ps, err := GenerateNTTPrimes(bitsize, 12, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, ps...)
	}
	qs = append(qs, 3, 5, (1<<61)-1, (1<<20)+1, (1<<45)+5)
	return qs
}

func TestBarrettMatchesReferenceMulMod(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, q := range testModuli(t) {
		br := NewBarrett(q)
		edge := []uint64{0, 1, 2, q - 1, q, q + 1, 2*q - 1, 2 * q, 4*q - 1, ^uint64(0)}
		for i := 0; i < 2000; i++ {
			var x, y uint64
			if i < len(edge)*len(edge) {
				x, y = edge[i%len(edge)], edge[i/len(edge)]
			} else {
				x, y = rng.Uint64(), rng.Uint64()
			}
			want := MulMod(x%q, y%q, q)
			if got := br.MulMod(x%q, y%q); got != want {
				t.Fatalf("q=%d: Barrett MulMod(%d,%d)=%d, reference %d", q, x%q, y%q, got, want)
			}
			// Barrett also accepts unreduced operands.
			hi, lo := bits.Mul64(x, y)
			_, wantFull := bits.Div64(hi%q, lo, q)
			if got := br.MulMod(x, y); got != wantFull {
				t.Fatalf("q=%d: Barrett MulMod(%d,%d)=%d, reference %d", q, x, y, got, wantFull)
			}
		}
	}
}

func TestBarrettReduceWord(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, q := range testModuli(t) {
		br := NewBarrett(q)
		for _, x := range []uint64{0, 1, q - 1, q, q + 1, 2 * q, 4*q - 1, ^uint64(0)} {
			if got := br.ReduceWord(x); got != x%q {
				t.Fatalf("q=%d: ReduceWord(%d)=%d, want %d", q, x, got, x%q)
			}
		}
		for i := 0; i < 2000; i++ {
			x := rng.Uint64()
			if got := br.ReduceWord(x); got != x%q {
				t.Fatalf("q=%d: ReduceWord(%d)=%d, want %d", q, x, got, x%q)
			}
		}
	}
}

func TestBarrettReduce128(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, q := range testModuli(t) {
		br := NewBarrett(q)
		for i := 0; i < 2000; i++ {
			hi, lo := rng.Uint64(), rng.Uint64()
			_, want := bits.Div64(hi%q, lo, q)
			// The reference drops hi mod q first, which is exact because
			// 2^64 mod q is absorbed: (hi·2^64+lo) ≡ ((hi mod q)·2^64+lo).
			if got := br.Reduce(hi, lo); got != want {
				t.Fatalf("q=%d: Reduce(%d,%d)=%d, want %d", q, hi, lo, got, want)
			}
		}
	}
}

// TestBarrettFrac64 pins Frac64(y) against the exact floor(y·2^64/q): never
// above it, and below it by at most 2 units of 2^-64 — the bound basis
// conversion's overshoot rounding relies on — including at the two residues
// either side of q/2.
func TestBarrettFrac64(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, q := range testModuli(t) {
		br := NewBarrett(q)
		ys := []uint64{0, 1, q >> 1, q>>1 + 1, q - 1}
		for i := 0; i < 500; i++ {
			ys = append(ys, rng.Uint64()%q)
		}
		for _, y := range ys {
			exact, _ := bits.Div64(y, 0, q) // floor(y·2^64/q), y < q
			got := br.Frac64(y)
			if got > exact || exact-got > 2 {
				t.Fatalf("q=%d y=%d: Frac64 = %d, exact %d", q, y, got, exact)
			}
		}
		// One prime's worth of rounding is exact: adding one half carries
		// exactly for the residues above q/2.
		for _, y := range []uint64{q >> 1, q>>1 + 1} {
			_, carry := bits.Add64(br.Frac64(y), 1<<63, 0)
			if (y > q>>1) != (carry == 1) {
				t.Errorf("q=%d: y=%d rounds to %d", q, y, carry)
			}
		}
	}
}

func TestNewBarrettRejectsBadModuli(t *testing.T) {
	for _, q := range []uint64{0, 1, 2, 4, 1 << 40} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewBarrett(%d) did not panic", q)
				}
			}()
			NewBarrett(q)
		}()
	}
}

func TestMulModShoupMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, q := range testModuli(t) {
		for i := 0; i < 500; i++ {
			s := rng.Uint64() % q
			w := ShoupPrecomp(s, q)
			for _, x := range []uint64{0, 1, q - 1, q, 2*q - 1, 4*q - 1, rng.Uint64(), rng.Uint64()} {
				want := MulMod(x%q, s, q)
				if got := MulModShoup(x%q, s, w, q); got != want {
					t.Fatalf("q=%d s=%d: MulModShoup(%d)=%d, want %d", q, s, x%q, got, want)
				}
				// Arbitrary (lazy-range) x: strict result must match x mod q times s.
				wantLazyBase := MulMod(x%q, s, q)
				if got := MulModShoup(x, s, w, q); got != wantLazyBase {
					t.Fatalf("q=%d s=%d: MulModShoup lazy-x(%d)=%d, want %d", q, s, x, got, wantLazyBase)
				}
			}
		}
	}
}

func TestMulModShoupLazyRange(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, q := range testModuli(t) {
		for i := 0; i < 500; i++ {
			s := rng.Uint64() % q
			w := ShoupPrecomp(s, q)
			x := rng.Uint64()
			r := MulModShoupLazy(x, s, w, q)
			if r >= 2*q {
				t.Fatalf("q=%d s=%d x=%d: lazy result %d outside [0,2q)", q, s, x, r)
			}
			if r%q != MulMod(x%q, s, q) {
				t.Fatalf("q=%d s=%d x=%d: lazy result %d incongruent to reference", q, s, x, r)
			}
		}
	}
}

func TestShoupPrecompRejectsUnreduced(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ShoupPrecomp with s >= q did not panic")
		}
	}()
	ShoupPrecomp(17, 17)
}

// benchSink defeats dead-code elimination of the benchmark loops.
var benchSink uint64

func benchPrimeAndOperands(b *testing.B) (uint64, []uint64) {
	b.Helper()
	ps, err := GenerateNTTPrimes(55, 12, 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	q := ps[0]
	rng := rand.New(rand.NewSource(6))
	xs := make([]uint64, 1024)
	for i := range xs {
		xs[i] = rng.Uint64() % q
	}
	return q, xs
}

func BenchmarkMulModReference(b *testing.B) {
	q, xs := benchPrimeAndOperands(b)
	y := q - 54321
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += MulMod(xs[i&1023], y, q)
	}
	benchSink = sink
}

func BenchmarkMulModBarrett(b *testing.B) {
	q, xs := benchPrimeAndOperands(b)
	br := NewBarrett(q)
	y := q - 54321
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += br.MulMod(xs[i&1023], y)
	}
	benchSink = sink
}

func BenchmarkMulModShoup(b *testing.B) {
	q, xs := benchPrimeAndOperands(b)
	s := q - 54321
	w := ShoupPrecomp(s, q)
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += MulModShoup(xs[i&1023], s, w, q)
	}
	benchSink = sink
}
