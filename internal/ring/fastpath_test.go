package ring

import (
	"math/rand"
	"sync"
	"testing"

	"eva/internal/numth"
)

// The tests in this file pin every division-free fast path (lazy-reduction
// NTT, Barrett element-wise multiplication, Shoup scalar multiplication, the
// NTT-domain automorphism, and the precomputed rescale constants) against the
// retained Div64-based reference implementations.

func TestNTTMatchesReference(t *testing.T) {
	for _, logN := range []int{2, 3, 4, 8, 10, 12, 13, 14} {
		r := testRing(t, logN, 3)
		for seed := int64(0); seed < 4; seed++ {
			p := randPoly(r, 2, 100+seed)
			for i, m := range r.Moduli {
				fast := append([]uint64(nil), p.Coeffs[i]...)
				ref := append([]uint64(nil), p.Coeffs[i]...)
				m.NTT(fast)
				m.nttReference(ref)
				for j := range fast {
					if fast[j] != ref[j] {
						t.Fatalf("logN=%d limb %d coeff %d: lazy NTT %d, reference %d", logN, i, j, fast[j], ref[j])
					}
				}
				m.InvNTT(fast)
				m.invNTTReference(ref)
				for j := range fast {
					if fast[j] != ref[j] {
						t.Fatalf("logN=%d limb %d coeff %d: lazy InvNTT %d, reference %d", logN, i, j, fast[j], ref[j])
					}
				}
			}
		}
	}
}

// TestNTTOutputFullyReduced checks the fast transforms' output contract:
// every value strictly below q, even for adversarial all-(q-1) inputs.
func TestNTTOutputFullyReduced(t *testing.T) {
	r := testRing(t, 8, 2)
	for i, m := range r.Moduli {
		a := make([]uint64, r.N)
		for j := range a {
			a[j] = m.Q - 1
		}
		m.NTT(a)
		for j, v := range a {
			if v >= m.Q {
				t.Fatalf("limb %d: NTT output %d at %d not reduced below q=%d", i, v, j, m.Q)
			}
		}
		m.InvNTT(a)
		for j, v := range a {
			if v >= m.Q {
				t.Fatalf("limb %d: InvNTT output %d at %d not reduced below q=%d", i, v, j, m.Q)
			}
		}
	}
}

func TestMulCoeffsMatchesOracle(t *testing.T) {
	r := testRing(t, 8, 3)
	a := randPoly(r, 2, 200)
	b := randPoly(r, 2, 201)
	a.IsNTT, b.IsNTT = true, true
	out := r.NewPoly(2)
	r.MulCoeffs(a, b, out)
	acc := r.NewPoly(2)
	acc.IsNTT = true
	r.MulCoeffsAndAdd(a, b, acc)
	for i := range out.Coeffs {
		q := r.Moduli[i].Q
		for j := range out.Coeffs[i] {
			want := numth.MulMod(a.Coeffs[i][j], b.Coeffs[i][j], q)
			if out.Coeffs[i][j] != want {
				t.Fatalf("MulCoeffs limb %d coeff %d: got %d want %d", i, j, out.Coeffs[i][j], want)
			}
			if acc.Coeffs[i][j] != want {
				t.Fatalf("MulCoeffsAndAdd limb %d coeff %d: got %d want %d", i, j, acc.Coeffs[i][j], want)
			}
		}
	}
}

func TestMulScalarMatchesOracle(t *testing.T) {
	r := testRing(t, 8, 3)
	a := randPoly(r, 2, 202)
	rng := rand.New(rand.NewSource(203))
	for _, scalar := range []uint64{0, 1, 2, r.Moduli[0].Q - 1, rng.Uint64(), rng.Uint64()} {
		out := r.NewPoly(2)
		r.MulScalar(a, scalar, out)
		for i := range out.Coeffs {
			q := r.Moduli[i].Q
			for j := range out.Coeffs[i] {
				want := numth.MulMod(a.Coeffs[i][j], scalar%q, q)
				if out.Coeffs[i][j] != want {
					t.Fatalf("scalar %d limb %d coeff %d: got %d want %d", scalar, i, j, out.Coeffs[i][j], want)
				}
			}
		}
	}
}

// TestAutomorphismNTTMatchesCoefficientPath pins the NTT-domain permutation
// against the coefficient-domain automorphism followed by a forward NTT, for
// every odd Galois element of a small ring and for the rotation-shaped
// elements (powers of 5) of a larger one.
func TestAutomorphismNTTMatchesCoefficientPath(t *testing.T) {
	small := testRing(t, 4, 2)
	var galEls []uint64
	for g := uint64(1); g < 2*uint64(small.N); g += 2 {
		galEls = append(galEls, g)
	}
	checkAutoNTT(t, small, galEls)

	big := testRing(t, 9, 2)
	galEls = nil
	g := uint64(1)
	m := 2 * uint64(big.N)
	for i := 0; i < 10; i++ {
		galEls = append(galEls, g, m-g)
		g = g * 5 % m
	}
	checkAutoNTT(t, big, galEls)
}

func checkAutoNTT(t *testing.T, r *Ring, galEls []uint64) {
	t.Helper()
	a := randPoly(r, 1, 300)
	for _, gal := range galEls {
		want := r.NewPoly(1)
		r.Automorphism(a, gal, want)
		r.NTT(want)

		an := a.CopyNew()
		r.NTT(an)
		got := r.NewPoly(1)
		r.AutomorphismNTT(an, gal, got)
		if !got.IsNTT {
			t.Fatal("AutomorphismNTT did not set IsNTT")
		}
		if !got.Equal(want) {
			t.Fatalf("galEl=%d: NTT-domain automorphism disagrees with coefficient-domain path", gal)
		}
	}
}

func TestAutomorphismAliasingGuards(t *testing.T) {
	r := testRing(t, 4, 2)
	a := randPoly(r, 1, 301)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s with aliased output did not panic", name)
			}
		}()
		f()
	}
	mustPanic("Automorphism", func() { r.Automorphism(a, 5, a) })
	// Partial aliasing (sharing one limb) must also be rejected.
	mixed := &Poly{Coeffs: [][]uint64{a.Coeffs[0], make([]uint64, r.N)}}
	mustPanic("Automorphism partial", func() { r.Automorphism(a, 5, mixed) })
	an := a.CopyNew()
	r.NTT(an)
	mustPanic("AutomorphismNTT", func() { r.AutomorphismNTT(an, 5, an) })
}

// TestElementwiseOpsAliasSafe documents the in-place audit for the
// element-wise operations: Add/Sub/Neg/MulCoeffs/MulScalar/AddScalar read
// slot j before writing slot j, so out may alias an operand.
func TestElementwiseOpsAliasSafe(t *testing.T) {
	r := testRing(t, 6, 2)
	fresh := func() (*Poly, *Poly) { return randPoly(r, 1, 302), randPoly(r, 1, 303) }

	a, b := fresh()
	want := r.NewPoly(1)
	r.Add(a, b, want)
	r.Add(a, b, a)
	if !a.Equal(want) {
		t.Error("in-place Add differs from out-of-place")
	}

	a, b = fresh()
	r.Sub(a, b, want)
	r.Sub(a, b, a)
	if !a.Equal(want) {
		t.Error("in-place Sub differs from out-of-place")
	}

	a, _ = fresh()
	r.Neg(a, want)
	r.Neg(a, a)
	if !a.Equal(want) {
		t.Error("in-place Neg differs from out-of-place")
	}

	a, b = fresh()
	a.IsNTT, b.IsNTT = true, true
	want.IsNTT = true
	r.MulCoeffs(a, b, want)
	r.MulCoeffs(a, b, a)
	if !a.Equal(want) {
		t.Error("in-place MulCoeffs differs from out-of-place")
	}

	a, _ = fresh()
	r.MulScalar(a, 12345, want)
	want.IsNTT = false
	r.MulScalar(a, 12345, a)
	if !a.Equal(want) {
		t.Error("in-place MulScalar differs from out-of-place")
	}

	a, _ = fresh()
	r.AddScalar(a, 777, want)
	r.AddScalar(a, 777, a)
	if !a.Equal(want) {
		t.Error("in-place AddScalar differs from out-of-place")
	}
}

// TestRescaleConstantsPrecomputed verifies the tables NewRing builds for
// DivideByLastModulusNTT against freshly computed inverses, for every level.
func TestRescaleConstantsPrecomputed(t *testing.T) {
	r := testRing(t, 5, 4)
	for l := 1; l <= r.MaxLevel(); l++ {
		qL := r.Moduli[l].Q
		for i := 0; i < l; i++ {
			qi := r.Moduli[i].Q
			if want := numth.MustInvMod(qL%qi, qi); r.rescaleInv[l][i] != want {
				t.Fatalf("rescaleInv[%d][%d] = %d, want %d", l, i, r.rescaleInv[l][i], want)
			}
			if want := (qL >> 1) % qi; r.rescaleHalf[l][i] != want {
				t.Fatalf("rescaleHalf[%d][%d] = %d, want %d", l, i, r.rescaleHalf[l][i], want)
			}
			if want := numth.ShoupPrecomp(r.rescaleInv[l][i], qi); r.rescaleInvShoup[l][i] != want {
				t.Fatalf("rescaleInvShoup[%d][%d] = %d, want %d", l, i, r.rescaleInvShoup[l][i], want)
			}
		}
	}
}

// TestDivideByLastModulusAllocs is the no-inverse-recompute regression guard:
// the rescale hot path writes into a caller-owned output and takes its one
// scratch limb from the ring's pool, so it allocates nothing beyond the
// closure that fans its limbs out — recomputing MustInvMod or any big-number
// scratch per call would show up here as extra allocations (and in
// BenchmarkDivideByLastModulusNTT's -benchmem column as regressed ns/op).
func TestDivideByLastModulusAllocs(t *testing.T) {
	r := testRing(t, 8, 4)
	p := randPoly(r, 3, 304)
	p.IsNTT = true
	out := r.NewPoly(2)
	allocs := testing.AllocsPerRun(50, func() {
		r.DivideByLastModulusNTT(p, out)
	})
	if allocs > 1 {
		t.Errorf("DivideByLastModulusNTT allocates %.0f objects per call, want <= 1", allocs)
	}
}

// TestDivideByLastModulusNTTMatchesOracle: rescaling in the NTT domain is
// bit-identical to the coefficient-domain division between the transforms,
// at every level of the chain, serially and on the worker pool.
func TestDivideByLastModulusNTTMatchesOracle(t *testing.T) {
	for _, workers := range []int{1, 4} {
		setWorkersForTest(t, workers)
		for _, logN := range []int{5, 11} {
			r := testRing(t, logN, 6)
			for level := 1; level <= r.MaxLevel(); level++ {
				p := randPoly(r, level, int64(100*logN+level))
				want := r.NewPoly(level - 1)
				r.divideByLastModulus(p, want)
				r.NTT(want)
				p.IsNTT = false
				r.NTT(p)
				got := r.NewPoly(level - 1)
				r.DivideByLastModulusNTT(p, got)
				if !got.Equal(want) || !got.IsNTT {
					t.Fatalf("workers=%d logN=%d level=%d: NTT-domain rescale differs from the coefficient-domain oracle", workers, logN, level)
				}
			}
		}
	}
}

// TestAutomorphismIndexCacheConcurrent hammers the Galois-permutation cache
// from many goroutines; run with -race this pins the cache's locking.
func TestAutomorphismIndexCacheConcurrent(t *testing.T) {
	r := testRing(t, 6, 2)
	a := randPoly(r, 1, 305)
	r.NTT(a)
	want := map[uint64]*Poly{}
	for _, gal := range []uint64{3, 5, 7, 9} {
		out := r.NewPoly(1)
		r.AutomorphismNTT(a, gal, out)
		want[gal] = out
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := 0; it < 20; it++ {
				gal := []uint64{3, 5, 7, 9}[(w+it)%4]
				out := r.NewPoly(1)
				r.AutomorphismNTT(a, gal, out)
				if !out.Equal(want[gal]) {
					t.Errorf("concurrent AutomorphismNTT(galEl=%d) mismatch", gal)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
