package ring

import (
	"math/big"
	"math/rand"
	"testing"

	"eva/internal/numth"
)

// mixedModuli returns NTT moduli of the given bit sizes (all distinct).
func mixedModuli(t testing.TB, logN int, bitSizes []int) []*Modulus {
	t.Helper()
	used := map[uint64]bool{}
	out := make([]*Modulus, len(bitSizes))
	for i, b := range bitSizes {
		ps, err := numth.GenerateNTTPrimes(b, logN, 1, used)
		if err != nil {
			t.Fatal(err)
		}
		used[ps[0]] = true
		if out[i], err = NewModulus(ps[0], logN); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestBasisConverterMatchesBigInt pins ConvertNTT against exact integer
// arithmetic: for random residues over source bases of 1..5 heterogeneous
// primes, every destination limb (after undoing the transform) must hold the
// centered CRT representative reduced modulo that prime — including
// destination primes that are members of the source basis, and with skipped
// (nil) outputs left alone.
func TestBasisConverterMatchesBigInt(t *testing.T) {
	const logN = 6
	n := 1 << logN
	all := mixedModuli(t, logN, []int{60, 60, 30, 45, 61, 25, 60, 38})
	rng := rand.New(rand.NewSource(3))
	for s := 1; s <= 5; s++ {
		src, dst := all[:s], all
		bc, err := NewBasisConverter(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		A := big.NewInt(1)
		for _, m := range src {
			A.Mul(A, new(big.Int).SetUint64(m.Q))
		}
		halfA := new(big.Int).Rsh(A, 1)

		in := make([][]uint64, s)
		want := make([]*big.Int, n)
		for i, m := range src {
			in[i] = make([]uint64, n)
			for j := range in[i] {
				in[i][j] = rng.Uint64() % m.Q
			}
		}
		// Edge residues for the one-prime decision: exactly at the half.
		in[0][0], in[0][1], in[0][2] = src[0].Q>>1, src[0].Q>>1+1, 0
		for j := 0; j < n; j++ {
			// CRT: x = Σ [x_i (A/a_i)^-1]_{a_i} · (A/a_i) mod A, then center.
			x := new(big.Int)
			for i, m := range src {
				ai := new(big.Int).SetUint64(m.Q)
				rest := new(big.Int).Div(A, ai)
				inv := new(big.Int).ModInverse(rest, ai)
				y := new(big.Int).SetUint64(in[i][j])
				y.Mul(y, inv).Mod(y, ai)
				x.Add(x, y.Mul(y, rest))
			}
			x.Mod(x, A)
			if x.Cmp(halfA) > 0 {
				x.Sub(x, A)
			}
			want[j] = x
		}

		out := make([][]uint64, len(dst))
		for k := range out {
			if k != 3 { // a skipped destination
				out[k] = make([]uint64, n)
			}
		}
		bc.ConvertNTT(in, out)
		for k, m := range dst {
			if out[k] == nil {
				continue
			}
			m.InvNTT(out[k])
			q := new(big.Int).SetUint64(m.Q)
			for j := 0; j < n; j++ {
				w := new(big.Int).Mod(want[j], q).Uint64()
				if out[k][j] != w {
					t.Fatalf("source size %d, destination %d (q=%d), coefficient %d: got %d, want %d",
						s, k, m.Q, j, out[k][j], w)
				}
			}
		}
	}
}

func TestBasisConverterRejectsBadBases(t *testing.T) {
	ms := mixedModuli(t, 6, []int{40, 41})
	if _, err := NewBasisConverter(nil, ms); err == nil {
		t.Error("empty source basis accepted")
	}
	if _, err := NewBasisConverter([]*Modulus{ms[0], ms[0]}, ms); err == nil {
		t.Error("repeated source prime accepted")
	}
	long := make([]*Modulus, MaxLazyDigits)
	for i := range long {
		long[i] = ms[i%2]
	}
	if _, err := NewBasisConverter(long, ms); err == nil {
		t.Error("source basis longer than the lazy accumulator allows accepted")
	}
}

// TestBasisConverterParallelMatchesSerial runs one conversion on a ring large
// enough to fan destination limbs across the worker pool and requires the
// same limbs as the one-worker run.
func TestBasisConverterParallelMatchesSerial(t *testing.T) {
	const logN = 12
	n := 1 << logN
	all := mixedModuli(t, logN, []int{55, 55, 55, 50, 50, 60})
	bc, err := NewBasisConverter(all[:3], all[3:])
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) [][]uint64 {
		SetWorkers(workers)
		defer SetWorkers(0)
		rng := rand.New(rand.NewSource(8))
		in := make([][]uint64, 3)
		for i := range in {
			in[i] = make([]uint64, n)
			for j := range in[i] {
				in[i][j] = rng.Uint64() % all[i].Q
			}
		}
		out := [][]uint64{make([]uint64, n), make([]uint64, n), make([]uint64, n)}
		bc.ConvertNTT(in, out)
		return out
	}
	serial, parallel := run(1), run(4)
	for k := range serial {
		for j := range serial[k] {
			if serial[k][j] != parallel[k][j] {
				t.Fatalf("destination %d coefficient %d: parallel %d, serial %d", k, j, parallel[k][j], serial[k][j])
			}
		}
	}
}
