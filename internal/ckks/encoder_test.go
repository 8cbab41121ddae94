package ckks

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// specials is the special-prime list of the one-special-prime parameter sets
// most tests use: a single prime of logP bits, none for logP = 0.
func specials(logP int) []int {
	if logP == 0 {
		return nil
	}
	return []int{logP}
}

func testParams(t testing.TB, logN int, logQi []int, logP int, scale float64) *Parameters {
	t.Helper()
	p, err := NewParameters(ParametersLiteral{LogN: logN, LogQi: logQi, LogPi: specials(logP), Scale: scale, AllowInsecure: true})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func maxAbsDiff(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		d := math.Abs(a[i] - b[i])
		if d > m {
			m = d
		}
	}
	return m
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	params := testParams(t, 11, []int{40, 30}, 0, 1<<30)
	enc := NewEncoder(params)
	rng := rand.New(rand.NewSource(1))
	values := make([]float64, params.Slots())
	for i := range values {
		values[i] = rng.Float64()*4 - 2
	}
	pt, err := enc.Encode(values, params.DefaultScale(), params.MaxLevel())
	if err != nil {
		t.Fatal(err)
	}
	decoded := enc.Decode(pt)
	if d := maxAbsDiff(values, decoded); d > 1e-6 {
		t.Fatalf("round-trip error %g too large", d)
	}
}

func TestEncodeReplicatesShortInputs(t *testing.T) {
	params := testParams(t, 11, []int{40}, 0, 1<<30)
	enc := NewEncoder(params)
	values := []float64{1, 2, 3, 4}
	pt, err := enc.Encode(values, params.DefaultScale(), 0)
	if err != nil {
		t.Fatal(err)
	}
	decoded := enc.Decode(pt)
	for i := 0; i < params.Slots(); i++ {
		if math.Abs(decoded[i]-values[i%4]) > 1e-6 {
			t.Fatalf("slot %d = %g, want %g", i, decoded[i], values[i%4])
		}
	}
}

func TestEncodeErrors(t *testing.T) {
	params := testParams(t, 11, []int{40}, 0, 1<<30)
	enc := NewEncoder(params)
	if _, err := enc.Encode(nil, 1<<30, 0); err == nil {
		t.Error("expected error for empty input")
	}
	if _, err := enc.Encode(make([]float64, 3), 1<<30, 0); err == nil {
		t.Error("expected error for non power-of-two input")
	}
	if _, err := enc.Encode(make([]float64, params.Slots()*2), 1<<30, 0); err == nil {
		t.Error("expected error for oversized input")
	}
	if _, err := enc.Encode([]float64{1}, 1<<30, 5); err == nil {
		t.Error("expected error for bad level")
	}
	if _, err := enc.Encode([]float64{1}, -1, 0); err == nil {
		t.Error("expected error for negative scale")
	}
}

// TestPlaintextMultiplicationMatchesSlots checks that ring multiplication of
// two encoded plaintexts corresponds to the element-wise product of their
// slot values (the property batching relies on).
func TestPlaintextMultiplicationMatchesSlots(t *testing.T) {
	params := testParams(t, 11, []int{50, 50}, 0, 1<<25)
	enc := NewEncoder(params)
	r := params.RingQ()
	rng := rand.New(rand.NewSource(2))
	slots := params.Slots()
	a := make([]float64, slots)
	b := make([]float64, slots)
	want := make([]float64, slots)
	for i := range a {
		a[i] = rng.Float64()*2 - 1
		b[i] = rng.Float64()*2 - 1
		want[i] = a[i] * b[i]
	}
	pa, _ := enc.Encode(a, params.DefaultScale(), params.MaxLevel())
	pb, _ := enc.Encode(b, params.DefaultScale(), params.MaxLevel())
	prod := r.NewPoly(params.MaxLevel())
	r.MulCoeffs(pa.Value, pb.Value, prod)
	pt := &Plaintext{Value: prod, Scale: pa.Scale * pb.Scale, Level: params.MaxLevel()}
	got := enc.Decode(pt)
	if d := maxAbsDiff(want, got); d > 1e-5 {
		t.Fatalf("slot-wise product error %g too large", d)
	}
}

// TestAutomorphismRotatesSlots pins down the slot-rotation convention: the
// Galois automorphism X -> X^(5^k) must rotate the decoded vector left by k.
func TestAutomorphismRotatesSlots(t *testing.T) {
	params := testParams(t, 11, []int{50}, 0, 1<<20)
	enc := NewEncoder(params)
	r := params.RingQ()
	slots := params.Slots()
	values := make([]float64, slots)
	for i := range values {
		values[i] = float64(i)
	}
	pt, _ := enc.Encode(values, params.DefaultScale(), 0)
	for _, k := range []int{1, 3, 7} {
		rotated := r.NewPoly(0)
		src := pt.Value.CopyNew()
		r.InvNTT(src)
		r.Automorphism(src, params.GaloisElementForRotation(k), rotated)
		r.NTT(rotated)
		got := enc.Decode(&Plaintext{Value: rotated, Scale: pt.Scale, Level: 0})
		for i := 0; i < slots; i++ {
			want := values[(i+k)%slots]
			if math.Abs(got[i]-want) > 1e-4 {
				t.Fatalf("rotation by %d: slot %d = %g, want %g", k, i, got[i], want)
			}
		}
	}
}

// TestDecodeCoefficientsMatchBig holds the one- and two-limb decode paths to
// the math/big reconstruction they replace, bit for bit: random residues and
// the edges 0, Q−1, (Q−1)/2 and (Q+1)/2 (the two sides of the centring), and
// for two limbs magnitudes whose rounding to float64 is a tie (to even, down
// and up) or just above one.
func TestDecodeCoefficientsMatchBig(t *testing.T) {
	for _, logQi := range [][]int{{55}, {30}, {50, 45}, {60, 60}, {40, 30, 35}} {
		params, err := NewParameters(ParametersLiteral{LogN: 10, LogQi: logQi, Scale: 1 << 20, AllowInsecure: true})
		if err != nil {
			t.Fatal(err)
		}
		r := params.RingQ()
		level := params.MaxLevel()
		bigQ := big.NewInt(1)
		for _, m := range r.Moduli {
			bigQ.Mul(bigQ, new(big.Int).SetUint64(m.Q))
		}
		one := big.NewInt(1)
		half := new(big.Int).Rsh(bigQ, 1)
		edges := []*big.Int{
			big.NewInt(0), one, new(big.Int).Sub(bigQ, one), half, new(big.Int).Add(half, one),
		}
		if bigQ.BitLen() > 72 {
			// 2^70 has an ulp of 2^18: +2^17 is a tie (even: down), +3·2^17
			// a tie (odd: up), and +2^17+1 just above one.
			base := new(big.Int).Lsh(one, 70)
			for _, off := range []int64{1 << 17, 3 << 17, 1<<17 + 1, 1<<17 - 1} {
				x := new(big.Int).Add(base, big.NewInt(off))
				edges = append(edges, x, new(big.Int).Sub(bigQ, x))
			}
		}
		rng := rand.New(rand.NewSource(int64(len(logQi))))
		p := r.NewPoly(level)
		for j := 0; j < params.N(); j++ {
			var x *big.Int
			if j < len(edges) {
				x = edges[j]
			} else {
				x = new(big.Int).Rand(rng, bigQ)
			}
			for i, m := range r.Moduli {
				p.Coeffs[i][j] = new(big.Int).Mod(x, new(big.Int).SetUint64(m.Q)).Uint64()
			}
		}
		enc := NewEncoder(params)
		got := enc.centeredCoeffs(p, level)
		for j, c := range enc.centeredBigCoeffs(p, level) {
			want, _ := new(big.Float).SetInt(c).Float64()
			if math.Float64bits(got[j]) != math.Float64bits(want) {
				t.Fatalf("limbs %v, coefficient %d (%v): decoded %v, math/big gives %v", logQi, j, c, got[j], want)
			}
		}
	}
}
