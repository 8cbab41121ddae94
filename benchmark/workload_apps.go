package main

import (
	"fmt"
	"math/rand"

	"eva/internal/apps"
	"eva/internal/ckks"
	"eva/internal/compile"
	"eva/internal/execute"
)

// appsTolerance bounds |encrypted − App.Plain| relative to each output's
// magnitude (see compareOutputs). Observed relative errors stay below 1e-3
// (Sobel and Harris, the deepest circuits, are the largest).
const appsTolerance = 1e-2

// appsSecure is one sweep over the six Table 8 applications at 128-bit-secure
// parameters: few instructions, each milliseconds long on a production-size
// ring, run sequentially — the opposite use of the layers nn_infer drives.
type appsSecure struct {
	seed int64
	apps []*secureApp
	st   execStats
}

type secureApp struct {
	app  *apps.App
	res  *compile.Result
	ctx  *execute.Context
	keys *execute.KeyMaterial
	enc  *execute.EncryptedInputs
	want map[string][]float64 // from App.Plain
}

func (w *appsSecure) clients() int            { return 1 }
func (w *appsSecure) tailPercentile() float64 { return 75 }
func (w *appsSecure) close()                  { w.apps = nil }

func (w *appsSecure) setup(tr *tracer) error {
	var suite []*apps.App
	if _, err := timed(tr, "builder.build", noSpan, -1, func() (err error) {
		suite, err = apps.Suite(4096, 64)
		return err
	}); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(w.seed))
	prng := ckks.NewTestPRNG(uint64(w.seed))
	w.apps = nil
	for _, app := range suite {
		a := &secureApp{app: app}
		in := app.MakeInputs(rng)
		a.want = app.Plain(in)
		var err error
		// Default options: no AllowInsecure, so parameter selection must find
		// a 128-bit-secure ring.
		if a.res, err = compileTraced(tr, "compile.Compile", noSpan, -1, app.Program, compile.DefaultOptions()); err != nil {
			return fmt.Errorf("%s: %w", app.Name, err)
		}
		if _, err = timed(tr, "ckks.keygen", noSpan, -1, func() (err error) {
			a.ctx, a.keys, err = execute.NewContext(a.res, prng)
			return err
		}); err != nil {
			return fmt.Errorf("%s: %w", app.Name, err)
		}
		if _, err = timed(tr, "ckks.encrypt", noSpan, -1, func() (err error) {
			a.enc, err = execute.EncryptInputs(a.ctx, a.res, a.keys, in, prng)
			return err
		}); err != nil {
			return fmt.Errorf("%s: %w", app.Name, err)
		}
		w.apps = append(w.apps, a)
	}
	return nil
}

func (w *appsSecure) op(_, _ int, tr *tracer, id int) (float64, error) {
	root := tr.begin("op", noSpan, id)
	defer tr.end(root)
	maxErr := 0.0
	for _, a := range w.apps {
		out, err := runTraced(tr, &w.st, root, id, a.ctx, a.res, a.enc,
			execute.RunOptions{Workers: 1, Scheduler: execute.SchedulerSequential})
		if err != nil {
			return maxErr, fmt.Errorf("%s: %w", a.app.Name, err)
		}
		s := tr.begin("ckks.decrypt", root, id)
		got, _ := execute.DecryptOutputs(a.ctx, a.res, a.keys, out)
		tr.end(s)
		e, err := compareOutputs(got, a.want, appsTolerance)
		maxErr = max(maxErr, e)
		if err != nil {
			return maxErr, fmt.Errorf("%s: %w", a.app.Name, err)
		}
	}
	return maxErr, nil
}

func (w *appsSecure) finish() (float64, error) { return 0, nil }

func (w *appsSecure) probes(tr *tracer, lm layerMetrics) error {
	largest := w.apps[0]
	for _, a := range w.apps {
		if err := replayCompile(tr, lm, a.app.Program, compile.DefaultOptions()); err != nil {
			return err
		}
		if a.ctx.Params.LogQP()*a.ctx.Params.N() > largest.ctx.Params.LogQP()*largest.ctx.Params.N() {
			largest = a
		}
	}
	probeRing(tr, lm, largest.ctx.Params.RingQ(), rand.New(rand.NewSource(w.seed)))
	return probeParse(tr, lm, w.seed)
}

func (w *appsSecure) layers(tr *tracer, lm layerMetrics, _ latencies) {
	lm["builder.build_ms"] = tr.setupMS("builder.build")
	lm["ckks.keygen_ms"] = tr.setupMS("ckks.keygen")
	lm["ckks.encrypt_ms"] = tr.setupMS("ckks.encrypt")
	dec, _ := tr.perOp(named("ckks.decrypt"))
	lm["ckks.decrypt_ms"] = median(dec)
	for _, a := range w.apps {
		compilerCounts(lm, a.res)
	}
	executeLayers(tr, &w.st, lm, 1)
}
