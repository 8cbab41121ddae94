package hetensor

import (
	"math"
	"math/rand"
	"testing"

	"eva/internal/builder"
	"eva/internal/ckks"
	"eva/internal/compile"
	"eva/internal/execute"
)

func plainMatmul(weights [][]float64, x, bias []float64) []float64 {
	out := make([]float64, len(weights))
	for i, row := range weights {
		for j, w := range row {
			out[i] += w * x[j]
		}
		if bias != nil {
			out[i] += bias[i]
		}
	}
	return out
}

func randMatrix(rng *rand.Rand, rows, cols int) [][]float64 {
	w := make([][]float64, rows)
	for i := range w {
		w[i] = randPlane(rng, cols)
	}
	return w
}

// TestMatmulMatchesPlain validates the diagonal-method matmul on rectangular
// shapes in both directions (wide and tall) and chained with itself, against
// a plain matrix-vector product.
func TestMatmulMatchesPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	b := builder.New("matmul", 32)
	tc := NewCompiler(b, 20, 15)
	x := &Vector{Value: b.InputWithWidth("x", 8, 30), Length: 5}

	wide := randMatrix(rng, 3, 5) // 5 -> 3: output shorter than input
	bias := []float64{0.5, -1, 0.25}
	mid, err := tc.Matmul("wide", x, wide, bias)
	if err != nil {
		t.Fatal(err)
	}
	if mid.Length != 3 {
		t.Fatalf("wide matmul length %d, want 3", mid.Length)
	}
	tall := randMatrix(rng, 6, 3) // 3 -> 6: output longer than input
	out, err := tc.Matmul("tall", mid, tall, nil)
	if err != nil {
		t.Fatal(err)
	}
	b.Output("mid", mid.Value, 30)
	b.Output("out", out.Value, 30)

	// The input vector is declared with width 8 (= nextPow2(5)) and the three
	// padding slots deliberately carry garbage: Matmul's zero weight columns
	// must make the product independent of them.
	xv := randPlane(rng, 8)
	got := runRef(t, b, execute.Inputs{"x": xv})
	wantMid := plainMatmul(wide, xv[:5], bias)
	for i, w := range wantMid {
		if math.Abs(got["mid"][i]-w) > 1e-9 {
			t.Fatalf("wide matmul neuron %d: got %g want %g", i, got["mid"][i], w)
		}
	}
	// The packed-vector invariant: zeros up to the period, then replication.
	if math.Abs(got["mid"][3]) > 1e-9 || math.Abs(got["mid"][4]-wantMid[0]) > 1e-9 {
		t.Fatalf("wide matmul layout broken: slots 3..4 = %v, want [0 %g]", got["mid"][3:5], wantMid[0])
	}
	wantOut := plainMatmul(tall, wantMid, nil)
	for i, w := range wantOut {
		if math.Abs(got["out"][i]-w) > 1e-9 {
			t.Fatalf("tall matmul neuron %d: got %g want %g", i, got["out"][i], w)
		}
	}
}

func TestMatmulErrors(t *testing.T) {
	b := builder.New("err", 8)
	tc := NewCompiler(b, 20, 15)
	x := &Vector{Value: b.InputWithWidth("x", 8, 30), Length: 8}
	if _, err := tc.Matmul("m", x, [][]float64{make([]float64, 5)}, nil); err == nil {
		t.Error("expected error for weight row length mismatch")
	}
	if _, err := tc.Matmul("m", x, nil, nil); err == nil {
		t.Error("expected error for empty weights")
	}
	if _, err := tc.Matmul("m", x, [][]float64{make([]float64, 8), make([]float64, 5)}, nil); err == nil {
		t.Error("expected error for a short later weight row")
	}
	if _, err := tc.Matmul("m", x, randMatrix(rand.New(rand.NewSource(9)), 2, 8), []float64{1}); err == nil {
		t.Error("expected error for bias length mismatch")
	}
	if _, err := tc.Matmul("m", x, randMatrix(rand.New(rand.NewSource(10)), 16, 8), nil); err == nil {
		t.Error("expected error for matmul wider than the vector")
	}
}

// buildMatmulProgram compiles a dim x dim matmul over a vecSize-slot vector,
// the end-to-end workload of BenchmarkHetensorMatmul.
func buildMatmulProgram(tb testing.TB, vecSize, dim int) *compile.Result {
	tb.Helper()
	rng := rand.New(rand.NewSource(42))
	b := builder.New("matmul", vecSize)
	tc := NewCompiler(b, 25, 20)
	x := &Vector{Value: b.InputWithWidth("x", dim, 30), Length: dim}
	out, err := tc.Matmul("mm", x, randMatrix(rng, dim, dim), nil)
	if err != nil {
		tb.Fatal(err)
	}
	b.Output("y", out.Value, 30)
	p, err := b.Program()
	if err != nil {
		tb.Fatal(err)
	}
	res, err := compile.Compile(p, compile.Options{AllowInsecure: true})
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// TestMatmulDispatchesHoistedBatches runs a compiled matmul on the CKKS
// backend and checks that the executor evaluated its rotations as one hoisted
// batch (dim-1 shared-source rotations), and that the homomorphic result
// matches the plain product.
func TestMatmulDispatchesHoistedBatches(t *testing.T) {
	const dim = 8
	res := buildMatmulProgram(t, 64, dim)
	prng := ckks.NewTestPRNG(3)
	ctx, keys, err := execute.NewContext(res, prng)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	weights := randMatrix(rng, dim, dim) // same stream as buildMatmulProgram
	xv := randPlane(rng, dim)
	enc, err := execute.EncryptInputs(ctx, res, keys, execute.Inputs{"x": xv}, prng)
	if err != nil {
		t.Fatal(err)
	}
	out, err := execute.Run(ctx, res, enc, execute.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Stats.HoistedBatches < 1 || out.Stats.HoistedRotations < dim-1 {
		t.Errorf("matmul run dispatched %d hoisted batches / %d rotations, want >= 1 / >= %d",
			out.Stats.HoistedBatches, out.Stats.HoistedRotations, dim-1)
	}
	dec, _ := execute.DecryptOutputs(ctx, res, keys, out)
	want := plainMatmul(weights, xv, nil)
	for i, w := range want {
		if math.Abs(dec["y"][i]-w) > 1e-3 {
			t.Fatalf("homomorphic matmul neuron %d: got %g want %g", i, dec["y"][i], w)
		}
	}
}

// BenchmarkHetensorMatmul is the end-to-end hoisting benchmark: one compiled
// 32x32 diagonal-method matmul executed on the CKKS backend. Its rotations
// dispatch as a single hoisted batch; ckks's BenchmarkRotate and
// BenchmarkRotateHoisted measure what sharing the decomposition saves.
func BenchmarkHetensorMatmul(b *testing.B) {
	const dim = 32
	res := buildMatmulProgram(b, 4096, dim)
	prng := ckks.NewTestPRNG(3)
	ctx, keys, err := execute.NewContext(res, prng)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	enc, err := execute.EncryptInputs(ctx, res, keys, execute.Inputs{"x": randPlane(rng, dim)}, prng)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := execute.Run(ctx, res, enc, execute.RunOptions{Scheduler: execute.SchedulerSequential}); err != nil {
			b.Fatal(err)
		}
	}
}
