package ckks

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"eva/internal/ring"
)

// hoistTestSteps are the rotation steps with generated keys in the hoisting
// tests; the property test draws random multisets from them.
var hoistTestSteps = []int{1, 2, 3, 4, 5, 6, 7, 8, -1, -2, -3, 0}

func ciphertextsEqual(a, b *Ciphertext) bool {
	if a.Level != b.Level || a.Scale != b.Scale || len(a.Value) != len(b.Value) {
		return false
	}
	for i := range a.Value {
		if !a.Value[i].Equal(b.Value[i]) {
			return false
		}
	}
	return true
}

// TestRotateHoistedMatchesRotateLeft is the element-exactness property test:
// for random step multisets and random levels, every ciphertext returned by
// RotateHoisted must be bit-identical to the corresponding individual
// RotateLeft call (the hoisted decomposition commutes exactly with the Galois
// automorphism, so this is equality of RNS limbs, not approximate equality).
func TestRotateHoistedMatchesRotateLeft(t *testing.T) {
	hoistedMatchesRotateLeft(t, newTestContext(t, 11, []int{50, 40, 40}, 50, 1<<40, hoistTestSteps))
}

// TestRotateHoistedMatchesRotateLeftGroupedDigits is the same property with
// digits of two primes, whose last digit is partial on the top and bottom
// levels of the three-prime chain.
func TestRotateHoistedMatchesRotateLeftGroupedDigits(t *testing.T) {
	hoistedMatchesRotateLeft(t, newTestContextSpecials(t, 11, []int{50, 40, 40}, []int{60, 60}, 1<<40, hoistTestSteps))
}

func hoistedMatchesRotateLeft(t *testing.T, tc *testContext) {
	va := tc.randomVector(3, 1)
	base := tc.encrypt(t, va)

	// One ciphertext per level, walked down the modulus chain.
	cts := []*Ciphertext{base}
	for l := base.Level; l > 0; l-- {
		down, err := tc.eval.ModSwitch(cts[len(cts)-1])
		if err != nil {
			t.Fatal(err)
		}
		cts = append(cts, down)
	}

	prop := func(rawKs []uint8, rawLevel uint8) bool {
		if len(rawKs) > 8 {
			rawKs = rawKs[:8]
		}
		ks := make([]int, len(rawKs))
		for i, v := range rawKs {
			ks[i] = hoistTestSteps[int(v)%len(hoistTestSteps)]
		}
		ct := cts[int(rawLevel)%len(cts)]

		batch, err := tc.eval.RotateHoisted(ct, ks, nil)
		if err != nil {
			t.Logf("RotateHoisted(%v): %v", ks, err)
			return false
		}
		seen := make(map[int]bool)
		for _, k := range ks {
			seen[k] = true
			want, err := tc.eval.RotateLeft(ct, k)
			if err != nil {
				t.Logf("RotateLeft(%d): %v", k, err)
				return false
			}
			got, ok := batch[k]
			if !ok || !ciphertextsEqual(got, want) {
				t.Logf("step %d of %v differs from RotateLeft", k, ks)
				return false
			}
		}
		return len(batch) == len(seen)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestRotateHoistedErrors(t *testing.T) {
	tc := newTestContext(t, 11, []int{50, 40}, 50, 1<<40, []int{1})
	va := tc.randomVector(5, 1)
	ct := tc.encrypt(t, va)
	if _, err := tc.eval.RotateHoisted(ct, []int{1, 3}, nil); err == nil {
		t.Error("RotateHoisted with a missing rotation key did not fail")
	}
	prod, err := tc.eval.Mul(ct, ct)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tc.eval.RotateHoisted(prod, []int{1}, nil); err == nil {
		t.Error("RotateHoisted on a degree-2 ciphertext did not fail")
	}
	out, err := tc.eval.RotateHoisted(ct, nil, nil)
	if err != nil || len(out) != 0 {
		t.Errorf("RotateHoisted with no steps = (%v, %v), want empty map", out, err)
	}
	if _, err := tc.eval.RotateHoisted(ct, []int{0}, nil); err == nil || !strings.Contains(err.Error(), "missing rotation key for step 0") {
		t.Errorf("RotateHoisted([0]) = %v, want the missing-key refusal", err)
	}
}

// TestRotateHoistedSteadyStateAllocs extends the pool_test.go guards to the
// shared decompose scratch: once the pools are warm, a hoisted batch must only
// allocate its result ciphertexts and batch bookkeeping, never the extended
// digit polynomials (level+1 polys + special limbs per call, which would
// dwarf everything else if they left the pool).
func TestRotateHoistedSteadyStateAllocs(t *testing.T) {
	// Pin the pool to one worker so the measurement sees the pooling
	// behavior, not the per-goroutine overhead of the batch fan-out (which
	// the race detector in particular inflates).
	ring.SetWorkers(1)
	t.Cleanup(func() { ring.SetWorkers(0) })
	tc := newTestContext(t, 11, []int{50, 40}, 50, 1<<40, []int{1, 2, 3, 4})
	va := tc.randomVector(7, 1)
	ct := tc.encrypt(t, va)
	ks := []int{1, 2, 3, 4}
	if _, err := tc.eval.RotateHoisted(ct, ks, nil); err != nil { // warm the pools
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := tc.eval.RotateHoisted(ct, ks, nil); err != nil {
			t.Fatal(err)
		}
	})
	// Four result ciphertexts (~10 objects each at this depth) plus the maps
	// and slices of the batch itself; the decompose scratch is pooled and
	// contributes nothing. Headroom: under -race, sync.Pool deliberately
	// drops a fraction of Puts, so some scratch reallocates.
	if allocs > 100 {
		t.Errorf("RotateHoisted(4 steps) allocates %.0f objects per op in steady state, want <= 100", allocs)
	}
}

// TestEvaluatorConcurrentHoisting hammers one shared evaluator (and through
// it the ring worker pool) from many goroutines, each running hoisted batches
// and checking bit-exactness against singleton rotations computed up front.
// Run with -race in CI.
func TestEvaluatorConcurrentHoisting(t *testing.T) {
	tc := newTestContext(t, 11, []int{50, 40, 40}, 50, 1<<40, []int{1, 2, 3, 4})
	va := tc.randomVector(9, 1)
	ct := tc.encrypt(t, va)
	ks := []int{1, 2, 3, 4}
	want := make(map[int]*Ciphertext, len(ks))
	for _, k := range ks {
		w, err := tc.eval.RotateLeft(ct, k)
		if err != nil {
			t.Fatal(err)
		}
		want[k] = w
	}

	const goroutines = 8
	const iters = 5
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				batch, err := tc.eval.RotateHoisted(ct, ks, nil)
				if err != nil {
					errs <- err
					return
				}
				for _, k := range ks {
					if !ciphertextsEqual(batch[k], want[k]) {
						errs <- fmt.Errorf("concurrent RotateHoisted diverged from RotateLeft at step %d", k)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
