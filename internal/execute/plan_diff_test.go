package execute_test

import (
	"bytes"
	"encoding/binary"
	"maps"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"eva/internal/apps"
	"eva/internal/ckks"
	"eva/internal/compile"
	"eva/internal/core"
	"eva/internal/execute"
	"eva/internal/lang"
	"eva/internal/nn"
)

var schedulers = map[string]execute.Scheduler{
	"parallel":         execute.SchedulerParallel,
	"bulk-synchronous": execute.SchedulerBulkSynchronous,
	"sequential":       execute.SchedulerSequential,
}

// fixture is one compiled program with a context, keys and encrypted inputs,
// all derived from fixed seeds so that two fixtures of one program hold
// identical key material and identical input ciphertexts.
type fixture struct {
	res  *compile.Result
	ctx  *execute.Context
	keys *execute.KeyMaterial
	enc  *execute.EncryptedInputs
}

func compileUnreleased(t testing.TB, prog *core.Program, opts compile.Options) *compile.Result {
	t.Helper()
	opts.AllowInsecure = true
	res, err := compile.Compile(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// compileInsecure compiles for a test and releases the result's plan when the
// test ends: the test process compiles many programs, and each plan's cached
// bytes should go back to the shared budget as soon as its test is over.
func compileInsecure(t testing.TB, prog *core.Program, opts compile.Options) *compile.Result {
	t.Helper()
	res := compileUnreleased(t, prog, opts)
	t.Cleanup(func() { compile.ReleasePlan(res) })
	return res
}

func newFixture(t testing.TB, res *compile.Result, in execute.Inputs, keySeed uint64) *fixture {
	t.Helper()
	prng := ckks.NewTestPRNG(keySeed)
	ctx, keys, err := execute.NewContext(res, prng)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := execute.EncryptInputs(ctx, res, keys, in, prng)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{res: res, ctx: ctx, keys: keys, enc: enc}
}

func (f *fixture) run(t testing.TB, opts execute.RunOptions) *execute.Outputs {
	t.Helper()
	out, err := execute.Run(f.ctx, f.res, f.enc, opts)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// runReference runs the fixture's program as compile.Result.Reference lowers
// it — no fused chains, nothing left over Q∪P — with the plan cache and buffer
// recycling off: the differential tests' reference run.
func (f *fixture) runReference(t testing.TB, opts execute.RunOptions) *execute.Outputs {
	t.Helper()
	out, err := execute.Run(f.ctx, f.res.Reference(), f.enc, execute.WithoutPlanMechanisms(opts))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// countingOps returns opts with an OnInstruction callback that counts the
// run's records per opcode into the returned map.
func countingOps(opts execute.RunOptions) (execute.RunOptions, map[core.OpCode]int) {
	counts := map[core.OpCode]int{}
	opts.OnInstruction = func(t *core.Term, _ execute.InstrRecord) { counts[t.Op]++ }
	return opts, counts
}

func randomInputs(p *core.Program, seed int64) execute.Inputs {
	rng := rand.New(rand.NewSource(seed))
	in := execute.Inputs{}
	for _, t := range p.Inputs() {
		v := make([]float64, t.VecWidth)
		for i := range v {
			v[i] = rng.Float64()*2 - 1
		}
		in[t.Name] = v
	}
	return in
}

// serialized renders every output of a run — ciphertexts in the wire format,
// plain outputs as their values — so runs can be compared byte for byte.
func serialized(t testing.TB, out *execute.Outputs) map[string][]byte {
	t.Helper()
	ser := map[string][]byte{}
	for name, ct := range out.Cipher {
		data, err := ct.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		ser[name] = data
	}
	for name, v := range out.Plain {
		var buf []byte
		for _, x := range v {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
		}
		ser["plain:"+name] = buf
	}
	return ser
}

func requireSameBytes(t testing.TB, what string, got, want map[string][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d outputs, want %d", what, len(got), len(want))
	}
	for name, w := range want {
		if !bytes.Equal(got[name], w) {
			t.Fatalf("%s: output %q differs from the reference run", what, name)
		}
	}
}

// defers reports a compiled program with an instruction that leaves its
// result over Q∪P for its consumer (compile.BasisQP).
func defers(res *compile.Result) bool {
	return slices.ContainsFunc(res.Instrs, func(in compile.Instr) bool { return in.Basis == compile.BasisQP })
}

// maxRunError is the largest distance between a run's decrypted outputs and
// the plain reference's.
func maxRunError(t testing.TB, f *fixture, out *execute.Outputs, want map[string][]float64) float64 {
	t.Helper()
	got, _ := execute.DecryptOutputs(f.ctx, f.res, f.keys, out)
	worst := 0.0
	for name, w := range want {
		for i, x := range w {
			worst = max(worst, math.Abs(got[name][i]-x))
		}
	}
	return worst
}

// extraKeySetErrors sums, over sequential runs under three more key sets
// than the fixtures' one, maxRunError of the program's runs and of the
// reference lowering's; it is 0, 0 for a program that defers no mod-down. A deferred
// rounding changes the bits every later rescale and mod-down rounds, so the
// two runs' errors are two draws of the same noise: one key set's sixteen
// lenet.eva scores put the ratio of the draws above 1.25 for 3 of 24 key
// sets, while the mean of their errors over the 24 key sets is 2.13e-6 with
// the mechanisms and 2.15e-6 without.
func extraKeySetErrors(t *testing.T, res *compile.Result, in execute.Inputs, want map[string][]float64) (on, off float64) {
	t.Helper()
	if !defers(res) {
		return 0, 0
	}
	seq := execute.RunOptions{Scheduler: execute.SchedulerSequential}
	for seed := uint64(42); seed < 45; seed++ {
		f := newFixture(t, res, in, seed)
		on += maxRunError(t, f, f.run(t, seq), want)
		off += maxRunError(t, f, f.runReference(t, seq), want)
	}
	return on, off
}

// differential runs one program cold-plan, warm-plan and as the reference
// lowering (fixture.runReference), under each scheduler. Cold and warm runs are
// byte-identical, and so are the runs of each kind across schedulers. Each
// scheduler gets a freshly compiled result (so its first run really is the
// plan's first) with the same keys and inputs, which also makes the
// schedulers comparable. The reference run defers no mod-down and fuses no
// rescale: for a program that defers none it is byte-identical to the
// others, and for one that does it makes more mod-downs, and the others'
// error against RunReference, summed with extraKeySetErrors, is at most 1.25×
// its own (one rounding per sum over Q∪P instead of one per key switch, one
// per fused rescale instead of two).
func differential(t *testing.T, prog *core.Program, opts compile.Options, in execute.Inputs) {
	want, err := execute.RunReference(prog, in)
	if err != nil {
		t.Fatal(err)
	}
	extraOn, extraOff := extraKeySetErrors(t, compileInsecure(t, prog, opts), in, want)
	var reference, offReference map[string][]byte
	for name, sched := range schedulers {
		f := newFixture(t, compileInsecure(t, prog, opts), in, 41)
		ropts := execute.RunOptions{Scheduler: sched, Workers: 3}
		coldOpts, coldOps := countingOps(ropts)
		warmOpts, warmOps := countingOps(ropts)
		offOpts, offOps := countingOps(ropts)
		cold := f.run(t, coldOpts)
		warm := f.run(t, warmOpts)
		off := f.runReference(t, offOpts)

		if warm.Stats.PlainCacheMisses != 0 {
			t.Errorf("%s: warm run missed the plan cache %d times", name, warm.Stats.PlainCacheMisses)
		}
		if warm.Stats.PlainCacheHits != cold.Stats.PlainCacheHits+cold.Stats.PlainCacheMisses {
			t.Errorf("%s: warm run looked up %d constants, cold run %d", name,
				warm.Stats.PlainCacheHits, cold.Stats.PlainCacheHits+cold.Stats.PlainCacheMisses)
		}
		if s := off.Stats; s.PlainCacheHits != 0 || s.FusedChains != 0 || s.RecycledBuffers != 0 {
			t.Errorf("%s: reference run still reports %d cache hits, %d fused chains, %d recycled buffers",
				name, s.PlainCacheHits, s.FusedChains, s.RecycledBuffers)
		}
		for _, o := range []*execute.Outputs{cold, warm} {
			if o.Stats.Instructions != off.Stats.Instructions {
				t.Errorf("%s: %d instructions, reference run %d", name, o.Stats.Instructions, off.Stats.Instructions)
			}
		}
		for _, ops := range []map[core.OpCode]int{coldOps, warmOps} {
			if !maps.Equal(ops, offOps) {
				t.Errorf("%s: per-opcode record counts %v differ from the reference run's %v", name, ops, offOps)
			}
		}

		on, offBytes := serialized(t, cold), serialized(t, off)
		requireSameBytes(t, name+" warm", serialized(t, warm), on)
		if !defers(f.res) {
			requireSameBytes(t, name+" cold", on, offBytes)
			if cold.Stats.ModDowns != off.Stats.ModDowns {
				t.Errorf("%s: %d mod-downs, reference run %d", name, cold.Stats.ModDowns, off.Stats.ModDowns)
			}
		} else {
			errOn, errOff := maxRunError(t, f, cold, want)+extraOn, maxRunError(t, f, off, want)+extraOff
			if errOn > 1.25*errOff {
				t.Errorf("%s: deferred mod-downs give error %g, more than 1.25× the reference runs' %g", name, errOn, errOff)
			}
			if cold.Stats.ModDowns >= off.Stats.ModDowns {
				t.Errorf("%s: %d mod-downs, reference run %d: nothing deferred", name, cold.Stats.ModDowns, off.Stats.ModDowns)
			}
		}
		if off.Stats.FusedRescales != 0 {
			t.Errorf("%s: reference run made %d fused rescales", name, off.Stats.FusedRescales)
		}
		if reference == nil {
			reference, offReference = on, offBytes
		}
		requireSameBytes(t, name+" vs other schedulers", on, reference)
		requireSameBytes(t, name+" reference vs other schedulers", offBytes, offReference)
	}
}

// TestPlanDifferentialExamples covers every program under examples/.
func TestPlanDifferentialExamples(t *testing.T) {
	sources, err := filepath.Glob("../../examples/*/*.eva")
	if err != nil || len(sources) == 0 {
		t.Fatalf("no example sources found (%v)", err)
	}
	for _, path := range sources {
		t.Run(filepath.Base(path), func(t *testing.T) {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := lang.ParseProgram(string(src))
			if err != nil {
				t.Fatal(err)
			}
			differential(t, prog, compile.DefaultOptions(), randomInputs(prog, 5))
		})
	}
}

// TestPlanDifferentialApps covers the six Table 8 applications.
func TestPlanDifferentialApps(t *testing.T) {
	suite, err := apps.Suite(64, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range suite {
		t.Run(app.Name, func(t *testing.T) {
			differential(t, app.Program, compile.DefaultOptions(), app.MakeInputs(rand.New(rand.NewSource(6))))
		})
	}
}

func benchSqueezeNet(t testing.TB) (*core.Program, execute.Inputs) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	net := nn.SqueezeNetCIFAR(nn.BenchConfig())
	prog, err := nn.BuildProgram(net, nn.RandomWeights(net, rng))
	if err != nil {
		t.Fatal(err)
	}
	return prog, nn.RandomImage(net, rng)
}

// TestPlanDifferentialSqueezeNet covers the benchmark's network, the program
// with the long fused chains.
func TestPlanDifferentialSqueezeNet(t *testing.T) {
	if raceEnabled {
		t.Skip("nine whole-network inferences are too slow under the race detector")
	}
	prog, image := benchSqueezeNet(t)
	differential(t, prog, compile.DefaultOptions(), image)
}
