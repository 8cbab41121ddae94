package execute_test

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"eva/internal/ckks"
	"eva/internal/compile"
	"eva/internal/core"
	"eva/internal/execute"
)

// convLike builds Σₖ rotl(x0, k)·cₖ + bias − c′ followed by a square: a
// hoistable rotation set, a fused chain, cached AddPlain/SubPlain operands,
// and enough multiplicative depth that buffers of several levels circulate.
func convLike(t testing.TB) *core.Program {
	b := newTreeBuilder(t, 17)
	var acc *core.Term
	for k := 0; k < 4; k++ {
		rot, err := b.p.NewRotation(core.OpRotateLeft, b.xs[0], k+1)
		if err != nil {
			t.Fatal(err)
		}
		prod := b.bin(core.OpMultiply, rot, b.constant())
		if acc == nil {
			acc = prod
		} else {
			acc = b.add(acc, prod)
		}
	}
	biased := b.bin(core.OpSub, b.add(acc, b.constant()), b.constant())
	b.output("out", b.bin(core.OpMultiply, biased, biased))
	b.output("linear", biased)
	return b.p
}

func requireClose(t testing.TB, what string, got, want map[string][]float64, tol float64) {
	t.Helper()
	for name, w := range want {
		g := got[name]
		if len(g) < len(w) {
			t.Errorf("%s: output %q has %d values, want %d", what, name, len(g), len(w))
			return
		}
		for i := range w {
			if math.Abs(g[i]-w[i]) > tol {
				t.Errorf("%s: output %q slot %d = %g, want %g", what, name, i, g[i], w[i])
				return
			}
		}
	}
}

// TestPlanSharedAcrossContexts runs one plan eight times at once through two
// contexts holding different keys. The plaintext cache is shared — encodings
// depend on the parameters only — so the second tenant adds nothing to it,
// and every result decrypts correctly under its own key.
func TestPlanSharedAcrossContexts(t *testing.T) {
	prog := convLike(t)
	in := randomInputs(prog, 3)
	want, err := execute.RunReference(prog, in)
	if err != nil {
		t.Fatal(err)
	}
	res := compileInsecure(t, prog, compile.DefaultOptions())
	tenants := []*fixture{newFixture(t, res, in, 51), newFixture(t, res, in, 52)}
	if tenants[0].keys.Secret.Value.Equal(tenants[1].keys.Secret.Value) {
		t.Fatal("the two contexts share a secret key; the test needs distinct tenants")
	}

	first := tenants[0].run(t, execute.RunOptions{})
	filled, _ := compile.PlanStatsOf(res)
	if first.Stats.PlainCacheMisses == 0 || filled.CachedPlaintexts == 0 || filled.CachedBytes == 0 {
		t.Fatalf("first run cached nothing (misses %d, stats %+v)", first.Stats.PlainCacheMisses, filled)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			f := tenants[g%2]
			out, err := execute.Run(f.ctx, res, f.enc, execute.RunOptions{Workers: 2})
			if err != nil {
				t.Error(err)
				return
			}
			if out.Stats.PlainCacheMisses != 0 {
				t.Errorf("run %d missed the shared cache %d times", g, out.Stats.PlainCacheMisses)
			}
			got, _ := execute.DecryptOutputs(f.ctx, res, f.keys, out)
			requireClose(t, "concurrent run", got, want, 1e-3)
		}(g)
	}
	wg.Wait()
	if after, _ := compile.PlanStatsOf(res); after != filled {
		t.Errorf("the second tenant changed the cache: %+v, was %+v", after, filled)
	}
}

func ciphertextBytes(t testing.TB, ct *ckks.Ciphertext) []byte {
	t.Helper()
	data, err := ct.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCallerOwnedBuffersSurviveRecycling: recycling returns a run's dead
// intermediates to the evaluator's pool, from which later runs draw — but
// never a ciphertext the caller owns. Inputs and returned outputs must be
// bit-unchanged after later runs (one of them cancelled mid-way), including
// an output handed to another program as its input.
func TestCallerOwnedBuffersSurviveRecycling(t *testing.T) {
	prog := convLike(t)
	f := newFixture(t, compileInsecure(t, prog, compile.DefaultOptions()), randomInputs(prog, 4), 61)

	inputs := map[string][]byte{}
	for name, ct := range f.enc.Cipher {
		inputs[name] = ciphertextBytes(t, ct)
	}
	kept := f.run(t, execute.RunOptions{Workers: 2})
	if kept.Stats.RecycledBuffers == 0 {
		t.Fatal("the run recycled nothing; the test would prove nothing")
	}
	want := serialized(t, kept)

	for i := 0; i < 3; i++ {
		f.run(t, execute.RunOptions{Workers: 2})
	}
	stdctx, cancel := context.WithCancel(context.Background())
	done := 0
	_, err := execute.RunContext(stdctx, f.ctx, f.res, f.enc, execute.RunOptions{
		Workers: 1,
		OnInstruction: func(*core.Term, execute.InstrRecord) {
			if done++; done == len(f.res.Instrs)/2 {
				cancel()
			}
		},
	})
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v", err)
	}
	again := f.run(t, execute.RunOptions{Workers: 2})

	requireSameBytes(t, "first run's outputs after later runs", serialized(t, kept), want)
	requireSameBytes(t, "a later run", serialized(t, again), want)
	for name, ct := range f.enc.Cipher {
		if string(ciphertextBytes(t, ct)) != string(inputs[name]) {
			t.Errorf("input %q changed under the runs that read it", name)
		}
	}

	// Pipeline hand-off: stage one's output is stage two's input, as the
	// serve pipeline runner passes it — the same context parameters, the
	// ciphertext itself, no copy.
	chained := compile.Options{MaxRescaleLog: 30, ExtraLevels: 1}
	stage1 := core.MustNewProgram("stage1", 8)
	x, _ := stage1.NewInput("x", core.TypeCipher, 8, 30)
	y, _ := stage1.NewInput("y", core.TypeCipher, 8, 30)
	xy, _ := stage1.NewBinary(core.OpMultiply, x, y)
	if err := stage1.AddOutput("z", xy, 30); err != nil {
		t.Fatal(err)
	}
	stage2 := core.MustNewProgram("stage2", 8)
	z, _ := stage2.NewInput("z", core.TypeCipher, 8, 30)
	half, _ := stage2.NewScalarConstant(0.5, 30)
	zh, _ := stage2.NewBinary(core.OpMultiply, z, half)
	zhh, _ := stage2.NewBinary(core.OpAdd, zh, zh)
	if err := stage2.AddOutput("out", zhh, 30); err != nil {
		t.Fatal(err)
	}
	in1 := execute.Inputs{"x": {1, 2, 3, 4, 5, 6, 7, 8}, "y": {2, 2, 2, 2, 3, 3, 3, 3}}
	f1 := newFixture(t, compileInsecure(t, stage1, chained), in1, 62)
	res2 := compileInsecure(t, stage2, chained)
	ctx2, keys2, err := execute.NewContext(res2, ckks.NewTestPRNG(62))
	if err != nil {
		t.Fatal(err)
	}
	if !ctx2.Params.Equal(f1.ctx.Params) {
		t.Fatal("the two stages compiled to different parameters; they cannot chain")
	}
	handoff := f1.run(t, execute.RunOptions{}).Cipher["z"]
	before := ciphertextBytes(t, handoff)
	enc2 := &execute.EncryptedInputs{Cipher: map[string]*ckks.Ciphertext{"z": handoff}, Plain: map[string][]float64{}}
	var out2 *execute.Outputs
	for i := 0; i < 3; i++ {
		if out2, err = execute.Run(ctx2, res2, enc2, execute.RunOptions{}); err != nil {
			t.Fatal(err)
		}
		f1.run(t, execute.RunOptions{}) // keeps stage one's pool churning too
	}
	if string(ciphertextBytes(t, handoff)) != string(before) {
		t.Error("the handed-off ciphertext changed under the stage that consumed it")
	}
	got, _ := execute.DecryptOutputs(ctx2, res2, keys2, out2)
	requireClose(t, "pipeline", got, map[string][]float64{"out": {2, 4, 6, 8, 15, 18, 21, 24}}, 1e-2)
}

// withPlanCacheBudget sets the process-wide budget for one test.
func withPlanCacheBudget(t testing.TB, bytes int64) {
	_, old := compile.PlanCacheBudget()
	compile.SetPlanCacheBudget(bytes)
	t.Cleanup(func() { compile.SetPlanCacheBudget(old) })
}

// TestPlanCacheBudgetExhausted: with room for a single plaintext the plan
// keeps one, encodes the rest on every run, says so in its miss count, and
// computes the same bytes as ever.
func TestPlanCacheBudgetExhausted(t *testing.T) {
	prog := convLike(t)
	in := randomInputs(prog, 5)
	roomy := newFixture(t, compileInsecure(t, prog, compile.DefaultOptions()), in, 71)
	want := serialized(t, roomy.run(t, execute.RunOptions{}))
	one, _ := compile.PlanStatsOf(roomy.res)
	perPlaintext := one.CachedBytes / int64(one.CachedPlaintexts)
	used, _ := compile.PlanCacheBudget()

	withPlanCacheBudget(t, used+perPlaintext)
	tight := newFixture(t, compileInsecure(t, prog, compile.DefaultOptions()), in, 71)
	for run := 0; run < 3; run++ {
		out := tight.run(t, execute.RunOptions{})
		requireSameBytes(t, "over-budget run", serialized(t, out), want)
		if out.Stats.PlainCacheMisses == 0 {
			t.Errorf("run %d reports no cache misses under an exhausted budget", run)
		}
	}
	if got, _ := compile.PlanStatsOf(tight.res); got.CachedBytes > perPlaintext {
		t.Errorf("plan holds %d bytes; the budget left room for %d", got.CachedBytes, perPlaintext)
	}

	withPlanCacheBudget(t, 0)
	off := newFixture(t, compileInsecure(t, prog, compile.DefaultOptions()), in, 71)
	out := off.run(t, execute.RunOptions{})
	requireSameBytes(t, "budget 0", serialized(t, out), want)
	if got, _ := compile.PlanStatsOf(off.res); got.CachedBytes != 0 || out.Stats.PlainCacheHits != 0 {
		t.Errorf("budget 0 still cached %d bytes / served %d hits", got.CachedBytes, out.Stats.PlainCacheHits)
	}
}

// TestReleasePlan: releasing a plan returns its bytes to the budget at once
// and for good; the program keeps running, uncached.
func TestReleasePlan(t *testing.T) {
	prog := convLike(t)
	f := newFixture(t, compileInsecure(t, prog, compile.DefaultOptions()), randomInputs(prog, 6), 81)
	if _, ok := compile.PlanStatsOf(f.res); ok {
		t.Fatal("a result that never ran has a plan")
	}
	compile.ReleasePlan(f.res) // no plan yet: must not build one
	before, _ := compile.PlanCacheBudget()
	want := serialized(t, f.run(t, execute.RunOptions{}))
	held, _ := compile.PlanStatsOf(f.res)
	if used, _ := compile.PlanCacheBudget(); held.CachedBytes == 0 || used != before+held.CachedBytes {
		t.Fatalf("budget use went %d → %d for a plan holding %d bytes", before, used, held.CachedBytes)
	}

	compile.ReleasePlan(f.res)
	if used, _ := compile.PlanCacheBudget(); used != before {
		t.Errorf("budget use is %d after the release, was %d before the plan filled", used, before)
	}
	out := f.run(t, execute.RunOptions{})
	requireSameBytes(t, "run after release", serialized(t, out), want)
	if got, _ := compile.PlanStatsOf(f.res); got.CachedBytes != 0 || got.CachedPlaintexts != 0 || out.Stats.PlainCacheHits != 0 {
		t.Errorf("released plan cached again: %+v, %d hits", got, out.Stats.PlainCacheHits)
	}
}

// TestReferenceRunKeepsNothing: a run without the plan mechanisms — the
// differential tests' reference run — computes the program's invariant
// values itself, leaves none in the program's cache and charges the budget
// nothing, and still computes what the program's own run does.
func TestReferenceRunKeepsNothing(t *testing.T) {
	b := newTreeBuilder(t, 19)
	weight := b.bin(core.OpAdd, b.constant(), b.constant()) // run-invariant, not a constant
	b.output("out", b.bin(core.OpMultiply, b.x(), weight))
	res := compileInsecure(t, b.p, compile.DefaultOptions())
	f := newFixture(t, res, randomInputs(b.p, 9), 93)
	before, _ := compile.PlanCacheBudget()
	ref := res.Reference()
	out, err := execute.Run(f.ctx, ref, f.enc, execute.WithoutPlanMechanisms(execute.RunOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := compile.PlanStatsOf(ref); got.CachedBytes != 0 {
		t.Errorf("the reference run left %d bytes in its program's cache", got.CachedBytes)
	}
	if used, _ := compile.PlanCacheBudget(); used != before {
		t.Errorf("budget use went %d → %d over a reference run", before, used)
	}
	requireSameBytes(t, "reference run", serialized(t, out), serialized(t, f.run(t, execute.RunOptions{})))
}

// TestDroppedResultFreesBudget: a result that becomes garbage without
// ReleasePlan — nothing outside a server releases — gives its bytes back too.
func TestDroppedResultFreesBudget(t *testing.T) {
	before, _ := compile.PlanCacheBudget()
	func() {
		prog := convLike(t)
		res := compileUnreleased(t, prog, compile.DefaultOptions())
		newFixture(t, res, randomInputs(prog, 7), 91).run(t, execute.RunOptions{})
		if used, _ := compile.PlanCacheBudget(); used <= before {
			t.Fatalf("the run cached nothing (budget use %d → %d)", before, used)
		}
		runtime.KeepAlive(res) // collected any earlier, the check above races the cleanup
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if used, _ := compile.PlanCacheBudget(); used == before {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("budget use still %d after the result was collected, want %d", used, before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestWarmInferenceAllocations is the steady-state allocation regression
// test: a warm bench-config SqueezeNet inference allocated 446 MB before
// plans (every constant re-encoded, every result fresh); with the cache,
// recycling and fusion it must stay under 100 MB.
func TestWarmInferenceAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations distort the count")
	}
	prog, image := benchSqueezeNet(t)
	f := newFixture(t, compileInsecure(t, prog, compile.DefaultOptions()), image, 1)
	ropts := execute.RunOptions{Workers: 2}
	f.run(t, ropts)
	f.run(t, ropts)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out := f.run(t, ropts)
	runtime.ReadMemStats(&after)
	allocated := float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	cached, _ := compile.PlanStatsOf(f.res)
	t.Logf("warm inference: %.1f MB allocated, %d cache hits (%d plaintexts, %.1f MB cached), %d fused chains over %d terms, %d buffers recycled",
		allocated, out.Stats.PlainCacheHits, cached.CachedPlaintexts, float64(cached.CachedBytes)/1e6,
		out.Stats.FusedChains, out.Stats.FusedTerms, out.Stats.RecycledBuffers)
	if allocated >= 100 {
		t.Errorf("warm inference allocated %.1f MB, want < 100 MB", allocated)
	}
	if out.Stats.PlainCacheMisses != 0 {
		t.Errorf("warm inference missed the plan cache %d times", out.Stats.PlainCacheMisses)
	}
}
