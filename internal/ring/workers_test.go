package ring

import (
	"runtime"
	"sync"
	"testing"

	"eva/internal/numth"
)

// setWorkersForTest pins the pool size for one test and restores the
// GOMAXPROCS default afterwards. Tests mutating the pool must not run in
// parallel with each other.
func setWorkersForTest(t *testing.T, n int) {
	t.Helper()
	SetWorkers(n)
	t.Cleanup(func() { SetWorkers(0) })
}

func TestSetWorkersDefault(t *testing.T) {
	SetWorkers(0)
	if got, want := Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("Workers() = %d after SetWorkers(0), want GOMAXPROCS = %d", got, want)
	}
	setWorkersForTest(t, 3)
	if got := Workers(); got != 3 {
		t.Fatalf("Workers() = %d after SetWorkers(3)", got)
	}
}

func TestParallelCoversEveryIndexOnce(t *testing.T) {
	setWorkersForTest(t, 4)
	for _, n := range []int{0, 1, 2, 3, 7, 64, 1000} {
		var mu sync.Mutex
		hits := make(map[int]int)
		Parallel(n, func(i int) {
			mu.Lock()
			hits[i]++
			mu.Unlock()
		})
		if len(hits) != n {
			t.Fatalf("Parallel(%d) visited %d distinct indices", n, len(hits))
		}
		for i, c := range hits {
			if c != 1 {
				t.Fatalf("Parallel(%d) visited index %d %d times", n, i, c)
			}
		}
	}
}

func TestParallelSingleWorkerRunsInline(t *testing.T) {
	setWorkersForTest(t, 1)
	seen := make([]bool, 100)
	Parallel(len(seen), func(i int) { seen[i] = true }) // no mutex: must be inline
	for i, ok := range seen {
		if !ok {
			t.Fatalf("index %d not visited", i)
		}
	}
}

func TestParallelPanicPropagates(t *testing.T) {
	setWorkersForTest(t, 4)
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
	}()
	Parallel(64, func(i int) {
		if i == 17 {
			panic("boom")
		}
	})
	t.Fatal("Parallel returned after a task panicked")
}

func TestParallelNestedDoesNotDeadlock(t *testing.T) {
	setWorkersForTest(t, 2)
	var count sync.Map
	Parallel(8, func(i int) {
		Parallel(8, func(j int) {
			count.Store([2]int{i, j}, true)
		})
	})
	n := 0
	count.Range(func(_, _ any) bool { n++; return true })
	if n != 64 {
		t.Fatalf("nested Parallel ran %d of 64 tasks", n)
	}
}

// TestRingOpsParallelMatchSerial pins the worker-pool fan-out of every
// limb-parallel ring operation against the single-worker path on a ring large
// enough (N >= parallelMinDegree) for the fan-out to engage.
func TestRingOpsParallelMatchSerial(t *testing.T) {
	primes, err := numth.GenerateNTTPrimes(45, 12, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRing(12, primes)
	if err != nil {
		t.Fatal(err)
	}
	level := r.MaxLevel()
	a := randPoly(r, level, 1)
	b := randPoly(r, level, 2)
	galEl := uint64(3)

	type result struct {
		ntt, sum, prod, acc, auto, resc *Poly
	}
	runAll := func() result {
		var res result
		res.ntt = a.CopyNew()
		res.ntt.IsNTT = false
		r.NTT(res.ntt)
		res.sum = r.NewPoly(level)
		r.Add(a, b, res.sum)
		an, bn := a.CopyNew(), b.CopyNew()
		an.IsNTT, bn.IsNTT = true, true
		res.prod = r.NewPoly(level)
		r.MulCoeffs(an, bn, res.prod)
		res.acc = res.prod.CopyNew()
		r.MulCoeffsAndAdd(an, bn, res.acc)
		res.auto = r.NewPoly(level)
		r.AutomorphismNTT(an, galEl, res.auto)
		res.resc = r.NewPoly(level - 1)
		r.DivideByLastModulusNTT(an, res.resc)
		return res
	}

	setWorkersForTest(t, 1)
	serial := runAll()
	SetWorkers(8)
	parallel := runAll()

	for name, pair := range map[string][2]*Poly{
		"NTT":                    {serial.ntt, parallel.ntt},
		"Add":                    {serial.sum, parallel.sum},
		"MulCoeffs":              {serial.prod, parallel.prod},
		"MulCoeffsAndAdd":        {serial.acc, parallel.acc},
		"AutomorphismNTT":        {serial.auto, parallel.auto},
		"DivideByLastModulusNTT": {serial.resc, parallel.resc},
	} {
		if !pair[0].Equal(pair[1]) {
			t.Errorf("%s: parallel result differs from serial", name)
		}
	}
}

func TestMulAddVecMatchesScalarLoop(t *testing.T) {
	r := testRing(t, 8, 1)
	m := r.Moduli[0]
	a := randPoly(r, 0, 3).Coeffs[0]
	b := randPoly(r, 0, 4).Coeffs[0]
	acc := randPoly(r, 0, 5).Coeffs[0]
	want := append([]uint64(nil), acc...)
	for j := range want {
		want[j] = numth.AddMod(want[j], m.br.MulMod(a[j], b[j]), m.Q)
	}
	// Odd tail length exercises the unroll remainder.
	n := len(acc) - 3
	MulAddVec(a[:n], b[:n], acc[:n], m.br)
	for j := 0; j < n; j++ {
		if acc[j] != want[j] {
			t.Fatalf("slot %d: MulAddVec = %d, scalar loop = %d", j, acc[j], want[j])
		}
	}
}

// TestWorkerPoolHammer drives every pooled operation from many goroutines at
// once (run with -race in CI): concurrent NTT/InvNTT/automorphism/accumulate
// calls on disjoint polynomials over one shared ring and worker pool.
func TestWorkerPoolHammer(t *testing.T) {
	primes, err := numth.GenerateNTTPrimes(45, 12, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRing(12, primes)
	if err != nil {
		t.Fatal(err)
	}
	setWorkersForTest(t, 4)
	level := r.MaxLevel()
	const goroutines = 8
	const iters = 10
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			a := randPoly(r, level, int64(g))
			ref := a.CopyNew()
			for it := 0; it < iters; it++ {
				r.NTT(a)
				acc := r.NewPoly(level)
				acc.IsNTT = true
				r.MulCoeffsAndAdd(a, a, acc)
				rot := r.NewPoly(level)
				r.AutomorphismNTT(a, 3, rot)
				r.InvNTT(a)
				if !a.Equal(ref) {
					errs <- "NTT round trip diverged under concurrency"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

// TestInnerProductPairMatchesSingles checks that the paired inner-product
// kernel (one digit gather feeding both switching-key halves) is bit-identical
// to two independent InnerProductAutoNTT calls, for both the identity and a
// genuine Galois permutation, serial and parallel.
func TestInnerProductPairMatchesSingles(t *testing.T) {
	primes, err := numth.GenerateNTTPrimes(45, 12, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRing(12, primes)
	if err != nil {
		t.Fatal(err)
	}
	level := r.MaxLevel()
	const digits = 3
	es := make([]*Poly, digits)
	kbs := make([]*Poly, digits)
	kas := make([]*Poly, digits)
	for d := 0; d < digits; d++ {
		es[d] = randPoly(r, level, int64(10+d))
		es[d].IsNTT = true
		kbs[d] = randPoly(r, level, int64(20+d))
		kas[d] = randPoly(r, level, int64(30+d))
	}
	for _, galEl := range []uint64{1, 5} {
		for _, workers := range []int{1, 4} {
			setWorkersForTest(t, workers)
			wantB, wantA := r.NewPoly(level), r.NewPoly(level)
			r.InnerProductAutoNTT(es, kbs, galEl, wantB)
			r.InnerProductAutoNTT(es, kas, galEl, wantA)
			gotB, gotA := r.NewPoly(level), r.NewPoly(level)
			r.InnerProductAutoNTTPair(es, kbs, kas, galEl, gotB, gotA)
			if !gotB.Equal(wantB) || !gotA.Equal(wantA) {
				t.Fatalf("paired inner product diverged from singles (galEl=%d, workers=%d)", galEl, workers)
			}
			if !gotB.IsNTT || !gotA.IsNTT {
				t.Fatal("paired inner product did not mark outputs as NTT")
			}
		}
	}
}
