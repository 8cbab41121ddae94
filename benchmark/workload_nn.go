package main

import (
	"math/rand"

	"eva/internal/ckks"
	"eva/internal/compile"
	"eva/internal/core"
	"eva/internal/execute"
	"eva/internal/nn"
)

// nnTolerance bounds |encrypted score − reference score| relative to the
// scores' magnitude (see compareOutputs). The bench-config SqueezeNet's
// scores differ from the cleartext ones by about 3e-5 at the paper's scales.
const nnTolerance = 1e-3

// nnInfer is one encrypted inference of the bench-config SqueezeNet-CIFAR,
// the paper's headline network, through EVA's own pipeline: thousands of
// sub-millisecond instructions on an insecure N=2^10 ring under the parallel
// scheduler.
type nnInfer struct {
	seed    int64
	workers int

	prog *core.Program
	res  *compile.Result
	ctx  *execute.Context
	keys *execute.KeyMaterial
	enc  *execute.EncryptedInputs
	want map[string][]float64 // reference scores, from the source program
	st   execStats
}

func (w *nnInfer) clients() int            { return 1 }
func (w *nnInfer) tailPercentile() float64 { return 75 }
func (w *nnInfer) close()                  {}

func insecureOptions() compile.Options {
	opts := compile.DefaultOptions()
	opts.AllowInsecure = true
	return opts
}

func (w *nnInfer) setup(tr *tracer) error {
	rng := rand.New(rand.NewSource(w.seed))
	net := nn.SqueezeNetCIFAR(nn.BenchConfig())
	_, err := timed(tr, "builder.build", noSpan, -1, func() (err error) {
		w.prog, err = nn.BuildProgram(net, nn.RandomWeights(net, rng))
		return err
	})
	if err != nil {
		return err
	}
	image := nn.RandomImage(net, rng)
	ref, err := execute.RunReference(w.prog, image)
	if err != nil {
		return err
	}
	w.want = map[string][]float64{"scores": ref["scores"][:net.NumClasses]}

	if w.res, err = compileTraced(tr, "compile.squeezenet", noSpan, -1, w.prog, insecureOptions()); err != nil {
		return err
	}
	prng := ckks.NewTestPRNG(uint64(w.seed))
	if _, err = timed(tr, "ckks.keygen", noSpan, -1, func() (err error) {
		w.ctx, w.keys, err = execute.NewContext(w.res, prng)
		return err
	}); err != nil {
		return err
	}
	_, err = timed(tr, "ckks.encrypt", noSpan, -1, func() (err error) {
		w.enc, err = execute.EncryptInputs(w.ctx, w.res, w.keys, image, prng)
		return err
	})
	return err
}

func (w *nnInfer) op(_, _ int, tr *tracer, id int) (float64, error) {
	root := tr.begin("op", noSpan, id)
	defer tr.end(root)
	out, err := runTraced(tr, &w.st, root, id, w.ctx, w.res, w.enc,
		execute.RunOptions{Workers: w.workers, Scheduler: execute.SchedulerParallel})
	if err != nil {
		return 0, err
	}
	s := tr.begin("ckks.decrypt", root, id)
	got, _ := execute.DecryptOutputs(w.ctx, w.res, w.keys, out)
	tr.end(s)
	return compareOutputs(got, w.want, nnTolerance)
}

func (w *nnInfer) finish() (float64, error) { return 0, nil }

func (w *nnInfer) probes(tr *tracer, lm layerMetrics) error {
	if err := replayCompile(tr, lm, w.prog, insecureOptions()); err != nil {
		return err
	}
	probeRing(tr, lm, w.ctx.Params.RingQ(), rand.New(rand.NewSource(w.seed)))
	return probeParse(tr, lm, w.seed)
}

func (w *nnInfer) layers(tr *tracer, lm layerMetrics, _ latencies) {
	lm["builder.build_ms"] = tr.setupMS("builder.build")
	lm["compile.squeezenet_ms"] = tr.setupMS("compile.squeezenet")
	lm["ckks.keygen_ms"] = tr.setupMS("ckks.keygen")
	lm["ckks.encrypt_ms"] = tr.setupMS("ckks.encrypt")
	dec, _ := tr.perOp(named("ckks.decrypt"))
	lm["ckks.decrypt_ms"] = median(dec)
	compilerCounts(lm, w.res)
	executeLayers(tr, &w.st, lm, w.workers)
}
