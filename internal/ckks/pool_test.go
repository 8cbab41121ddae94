package ckks

import (
	"runtime"
	"runtime/debug"
	"testing"

	"eva/internal/ring"
)

// The tests in this file are the allocation regression guards for the pooled
// scratch-buffer design: once the evaluator's pools are warm, the
// relinearize/rotate/rescale hot paths must only allocate their result
// ciphertexts, never the key-switch scratch polynomials (and, per the
// no-inverse-recompute guard, no big-number scratch from re-deriving the
// rescale or mod-down constants that are precomputed on Ring/Parameters).

func TestRelinearizeSteadyStateAllocs(t *testing.T) {
	tc := newTestContext(t, 11, []int{50, 40}, 50, 1<<40, nil)
	va := make([]float64, tc.params.Slots())
	for i := range va {
		va[i] = float64(i%7) / 7
	}
	prod, err := tc.eval.Mul(tc.encrypt(t, va), tc.encrypt(t, va))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tc.eval.Relinearize(prod); err != nil { // warm the pools
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := tc.eval.Relinearize(prod); err != nil {
			t.Fatal(err)
		}
	})
	// Seed code allocated 31 objects per op (every scratch poly fresh);
	// the pooled path needs about half that, all attributable to the
	// returned ciphertext. Leave headroom for an occasional GC-emptied pool.
	if allocs > 22 {
		t.Errorf("Relinearize allocates %.0f objects per op in steady state, want <= 22", allocs)
	}
}

func TestRotateSteadyStateAllocs(t *testing.T) {
	tc := newTestContext(t, 11, []int{50, 40}, 50, 1<<40, []int{1})
	va := make([]float64, tc.params.Slots())
	for i := range va {
		va[i] = float64(i%5) / 5
	}
	ct := tc.encrypt(t, va)
	if _, err := tc.eval.RotateLeft(ct, 1); err != nil { // warm the pools
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := tc.eval.RotateLeft(ct, 1); err != nil {
			t.Fatal(err)
		}
	})
	// Seed code: 47 objects per rotation (coefficient-domain round trip plus
	// fresh key-switch scratch).
	if allocs > 22 {
		t.Errorf("RotateLeft allocates %.0f objects per op in steady state, want <= 22", allocs)
	}
}

func TestRescaleSteadyStateAllocs(t *testing.T) {
	tc := newTestContext(t, 11, []int{50, 40}, 50, 1<<40, nil)
	va := make([]float64, tc.params.Slots())
	for i := range va {
		va[i] = float64(i%3) / 3
	}
	prod, err := tc.eval.Mul(tc.encrypt(t, va), tc.encrypt(t, va))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tc.eval.Rescale(prod); err != nil { // warm the pools
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := tc.eval.Rescale(prod); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 16 {
		t.Errorf("Rescale allocates %.0f objects per op in steady state, want <= 16", allocs)
	}
}

// TestPolyPoolLevels checks the pool hands back polynomials of the requested
// level with a cleared NTT flag, recycled buffers included.
func TestPolyPoolLevels(t *testing.T) {
	tc := newTestContext(t, 10, []int{45, 40, 40}, 45, 1<<40, nil)
	pp := tc.eval.pool
	for level := 0; level <= tc.params.MaxLevel(); level++ {
		p := pp.Get(level)
		if p.Level() != level {
			t.Fatalf("pool returned level %d, want %d", p.Level(), level)
		}
		if p.IsNTT {
			t.Fatal("pool returned a polynomial with IsNTT set")
		}
		for i := range p.Coeffs {
			for j := range p.Coeffs[i] {
				p.Coeffs[i][j] = 12345
			}
		}
		p.IsNTT = true
		pp.Put(p)
		r := pp.Get(level)
		if r.Level() != level || r.IsNTT {
			t.Fatalf("recycled polynomial at level %d (IsNTT %v), want level %d with IsNTT cleared", r.Level(), r.IsNTT, level)
		}
		pp.Put(r)
	}
}

// bytesPerRun reports the mean heap bytes allocated per call of f.
func bytesPerRun(runs int, f func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestKeySwitchSteadyStateBytes is the byte-level guard on the rotate and
// relinearize paths: with results handed back through Recycle, as the
// executor does, a warm evaluator must not allocate anything the size of a
// polynomial — not the decomposition's digit buffers, not the special-prime
// accumulators — nor the decomposition's and the batch's slice headers, at
// either digit size. What is left is the result ciphertext headers (64 bytes)
// and, for a batch, its result map: under a single limb
// (16 KiB on this ring), where one leaked top-level polynomial is 80 KiB.
func TestKeySwitchSteadyStateBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops Puts, so scratch reallocates by design")
	}
	// What is measured is the evaluator's own allocation, not sync.Pool's:
	// a garbage collection empties the pools (the fixtures leave plenty to
	// collect), and with several Ps a goroutine that migrates, or a ring
	// worker, misses buffers parked in another P's private slot. Either
	// charges a window a refill, so the test runs on one P and one ring
	// worker with the collector off, where the counts are exact.
	defer ring.SetWorkers(0)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ring.SetWorkers(1)
	ks := []int{1, 2, 3, 4}
	logQi := []int{50, 40, 40, 40, 40}
	for _, logPi := range [][]int{{60}, {60, 60}} {
		tc := newTestContextSpecials(t, 11, logQi, logPi, 1<<40, ks)
		ct := tc.encrypt(t, tc.randomVector(13, 1))
		prod, err := tc.eval.Mul(ct, ct)
		if err != nil {
			t.Fatal(err)
		}
		ops := map[string]func(){
			"Relinearize": func() {
				out, err := tc.eval.Relinearize(prod)
				if err != nil {
					t.Fatal(err)
				}
				tc.eval.Recycle(out)
			},
			"RotateLeft": func() {
				out, err := tc.eval.RotateLeft(ct, 3)
				if err != nil {
					t.Fatal(err)
				}
				tc.eval.Recycle(out)
			},
			"RotateHoisted(4)": func() {
				out, err := tc.eval.RotateHoisted(ct, ks, nil)
				if err != nil {
					t.Fatal(err)
				}
				for _, rot := range out {
					tc.eval.Recycle(rot)
				}
			},
		}
		for name, op := range ops {
			// A lone key switch allocates its result's header and nothing
			// else; a batch adds its result map.
			budget := 256.0
			if name == "RotateHoisted(4)" {
				budget = float64(8 * tc.params.N())
			}
			bytesPerRun(3, op) // warm the pools
			got := bytesPerRun(10, op)
			if got > budget {
				t.Errorf("digit size %d: %s allocates %.0f bytes per op in steady state, want at most %.0f",
					len(logPi), name, got, budget)
			}
		}
	}
}
