package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"eva/internal/analysis"
	"eva/internal/compile"
	"eva/internal/core"
	"eva/internal/execute"
	"eva/internal/lang"
	"eva/internal/nn"
	"eva/internal/rewrite"
	"eva/internal/ring"
)

// timed runs f inside a span and returns how long it took in milliseconds.
func timed(tr *tracer, name string, parent, op int, f func() error) (float64, error) {
	s := tr.begin(name, parent, op)
	start := time.Now()
	err := f()
	d := time.Since(start)
	tr.end(s)
	return float64(d) / 1e6, err
}

// compileTraced is compile.Compile inside a span.
func compileTraced(tr *tracer, name string, parent, op int, prog *core.Program, opts compile.Options) (*compile.Result, error) {
	var res *compile.Result
	_, err := timed(tr, name, parent, op, func() (err error) {
		res, err = compile.Compile(prog, opts)
		return err
	})
	return res, err
}

// replayCompile attributes one compilation to the compiler's passes from
// outside: it times a whole compile.Compile, then replays its three heavy
// steps on a clone of its own through the public pass entry points, and
// charges the rest (cloning, structure checks, rotation-step and ring-degree
// selection, statistics) to compile.self_ms. The values add to lm, so a
// workload with several programs reports their sum.
func replayCompile(tr *tracer, lm layerMetrics, prog *core.Program, opts compile.Options) error {
	if opts.MaxRescaleLog <= 0 {
		opts.MaxRescaleLog = 60 // compile.Compile's default
	}
	total, err := timed(tr, "compile.Compile", noSpan, -1, func() error {
		_, err := compile.Compile(prog, opts)
		return err
	})
	if err != nil {
		return err
	}
	clone := prog.Clone()
	transform, err := timed(tr, "rewrite.Transform", noSpan, -1, func() error {
		return rewrite.Transform(clone, rewrite.Options{
			MaxRescaleLog: opts.MaxRescaleLog,
			WaterlineLog:  opts.WaterlineLog,
			Rescale:       opts.Rescale,
			ModSwitch:     opts.ModSwitch,
		})
	})
	if err != nil {
		return err
	}
	var chains map[*core.Term]analysis.Chain
	var scales map[*core.Term]float64
	validate, err := timed(tr, "analysis.Validate", noSpan, -1, func() (err error) {
		chains, scales, err = analysis.Validate(clone, opts.MaxRescaleLog)
		return err
	})
	if err != nil {
		return err
	}
	selectParams, err := timed(tr, "analysis.SelectParameters", noSpan, -1, func() error {
		_, err := analysis.SelectParameters(clone, chains, scales, opts.MaxRescaleLog)
		return err
	})
	if err != nil {
		return err
	}
	lm["rewrite.transform_ms"] += transform
	lm["analysis.validate_ms"] += validate
	lm["analysis.select_params_ms"] += selectParams
	lm["compile.self_ms"] += total - transform - validate - selectParams
	return nil
}

// compilerCounts adds the size of one compiled program to lm.
func compilerCounts(lm layerMetrics, res *compile.Result) {
	ins := res.CompiledStats.Instructions
	lm["rewrite.terms_in"] += float64(res.SourceStats.Terms)
	lm["rewrite.terms_out"] += float64(res.CompiledStats.Terms)
	lm["rewrite.rescale_n"] += float64(ins[core.OpRescale.String()])
	lm["rewrite.modswitch_n"] += float64(ins[core.OpModSwitch.String()])
	lm["rewrite.relinearize_n"] += float64(ins[core.OpRelinearize.String()])
	lm["rewrite.rotation_sets"] += float64(len(rewrite.RotationSets(res.Program)))
	lm["analysis.log_n"] = max(lm["analysis.log_n"], float64(res.LogN))
	lm["analysis.logq_bits"] += float64(res.Plan.LogQ())
	lm["analysis.primes"] += float64(res.Plan.NumPrimes())
	lm["analysis.rotation_keys"] += float64(len(res.RotationSteps))
}

// runTraced is execute.Run inside a span. When traced it installs the
// public OnInstruction callback and records one child span per instruction;
// untraced it installs nothing. Scheduler statistics of traced runs are kept
// per operation for executeLayers.
func runTraced(tr *tracer, st *execStats, parent, op int, ctx *execute.Context, res *compile.Result,
	in *execute.EncryptedInputs, opts execute.RunOptions) (*execute.Outputs, error) {

	s := tr.begin("execute.Run", parent, op)
	if tr != nil {
		opts.OnInstruction = func(t *core.Term, rec execute.InstrRecord) {
			tr.add("instr."+t.Op.String(), s, op, rec.Wall)
		}
	}
	out, err := execute.Run(ctx, res, in, opts)
	tr.end(s)
	if tr != nil && err == nil {
		st.add(op, out.Stats)
	}
	return out, err
}

// execStats sums the public RunStats counters of the traced runs of each
// operation (an apps_secure operation makes six runs).
type execStats struct {
	byOp map[int]*execute.RunStats
}

func (st *execStats) add(op int, s execute.RunStats) {
	if st.byOp == nil {
		st.byOp = map[int]*execute.RunStats{}
	}
	t := st.byOp[op]
	if t == nil {
		t = &execute.RunStats{}
		st.byOp[op] = t
	}
	t.Instructions += s.Instructions
	t.HoistedBatches += s.HoistedBatches
	t.HoistedRotations += s.HoistedRotations
	t.PeakLiveBytes = max(t.PeakLiveBytes, s.PeakLiveBytes)
}

var opcodeMetrics = []struct {
	metric  string
	opcodes []core.OpCode
}{
	{"ckks.multiply", []core.OpCode{core.OpMultiply}},
	{"ckks.add", []core.OpCode{core.OpAdd, core.OpSub, core.OpNegate}},
	{"ckks.relinearize", []core.OpCode{core.OpRelinearize}},
	{"ckks.rescale", []core.OpCode{core.OpRescale}},
	{"ckks.rotate", []core.OpCode{core.OpRotateLeft, core.OpRotateRight}},
	{"ckks.modswitch", []core.OpCode{core.OpModSwitch}},
}

// executeLayers derives the ckks.* and execute.* per-operation metrics from
// the execute.Run spans and their instruction children. Times are medians
// over the traced operations; counts are those of one operation.
func executeLayers(tr *tracer, st *execStats, lm layerMetrics, workers int) {
	isInstr := func(name string) bool { return strings.HasPrefix(name, "instr.") }
	run, _ := tr.perOp(named("execute.Run"))
	busy, _ := tr.perOp(isInstr)
	if len(run) == 0 || len(run) != len(busy) {
		return
	}
	for _, m := range opcodeMetrics {
		ms, n := tr.perOp(func(name string) bool {
			for _, oc := range m.opcodes {
				if name == "instr."+oc.String() {
					return true
				}
			}
			return false
		})
		lm[m.metric+"_ms"] = median(ms)
		lm[m.metric+"_n"] = median(n)
	}
	self := make([]float64, len(run))
	eff := make([]float64, len(run))
	for i := range run {
		self[i] = run[i] - busy[i]/float64(workers)
		eff[i] = busy[i] / (run[i] * float64(workers))
	}
	lm["execute.run_ms"] = median(run)
	lm["execute.instr_busy_ms"] = median(busy)
	lm["execute.self_ms"] = median(self)
	lm["execute.parallel_efficiency"] = median(eff)
	for _, s := range st.byOp {
		lm["execute.instructions"] = float64(s.Instructions)
		lm["ckks.hoisted_batches"] = float64(s.HoistedBatches)
		lm["ckks.hoisted_rotations"] = float64(s.HoistedRotations)
		lm["execute.peak_live_mb"] = max(lm["execute.peak_live_mb"], float64(s.PeakLiveBytes)/1e6)
	}
}

const ringProbeReps = 64

// probeRing times the ring kernels key switching is made of by calling them
// directly on the context's own ring at its top level.
func probeRing(tr *tracer, lm layerMetrics, r *ring.Ring, rng *rand.Rand) {
	level := r.MaxLevel()
	a, b, out := r.NewPoly(level), r.NewPoly(level), r.NewPoly(level)
	for i, m := range r.Moduli[:level+1] {
		for j := range a.Coeffs[i] {
			a.Coeffs[i][j] = rng.Uint64() % m.Q
			b.Coeffs[i][j] = rng.Uint64() % m.Q
		}
	}
	r.NTT(b)
	var ntt, inv, mul []float64
	for rep := 0; rep < ringProbeReps; rep++ {
		ms, _ := timed(tr, "ring.NTT", noSpan, -1, func() error { r.NTT(a); return nil })
		ntt = append(ntt, ms*1e3)
		ms, _ = timed(tr, "ring.MulCoeffs", noSpan, -1, func() error { r.MulCoeffs(a, b, out); return nil })
		mul = append(mul, ms*1e3)
		ms, _ = timed(tr, "ring.InvNTT", noSpan, -1, func() error { r.InvNTT(a); return nil })
		inv = append(inv, ms*1e3)
	}
	lm["ring.ntt_us"] = median(ntt)
	lm["ring.invntt_us"] = median(inv)
	lm["ring.mulcoeffs_us"] = median(mul)
}

const parseProbeReps = 5

// probeParse measures the source-language frontend: it prints the
// bench-config SqueezeNet as .eva text and times lang.ParseProgram over it.
func probeParse(tr *tracer, lm layerMetrics, seed int64) error {
	net := nn.SqueezeNetCIFAR(nn.BenchConfig())
	prog, err := nn.BuildProgram(net, nn.RandomWeights(net, rand.New(rand.NewSource(seed))))
	if err != nil {
		return err
	}
	src, err := lang.Print(prog)
	if err != nil {
		return err
	}
	var rates []float64
	for rep := 0; rep < parseProbeReps; rep++ {
		var parsed *core.Program
		ms, err := timed(tr, "lang.ParseProgram", noSpan, -1, func() (err error) {
			parsed, err = lang.ParseProgram(src)
			return err
		})
		if err != nil {
			return err
		}
		if parsed.NumTerms() != prog.NumTerms() {
			return fmt.Errorf("parsed program has %d terms; printed one had %d", parsed.NumTerms(), prog.NumTerms())
		}
		rates = append(rates, float64(len(src))/1e6/(ms/1e3))
	}
	lm["lang.parse_mb_s"] = median(rates)
	return nil
}
