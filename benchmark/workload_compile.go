package main

import (
	"fmt"
	"math/rand"
	"slices"

	"eva/internal/compile"
	"eva/internal/core"
	"eva/internal/execute"
	"eva/internal/nn"
)

// compileTolerance bounds the cleartext difference between a compiled
// program and its source, relative to the output's magnitude: RESCALE, MOD_SWITCH and RELINEARIZE are the
// identity under reference semantics and MATCH-SCALE multiplies by 1, so the
// two agree to rounding.
const compileTolerance = 1e-9

// compileFull compiles the paper-scale Industrial and SqueezeNet-CIFAR
// graphs (tens of thousands of terms): the compiler alone, no encryption.
type compileFull struct {
	seed  int64
	progs []*fullProgram
}

type fullProgram struct {
	label string // span and metric name: compile.<label>
	prog  *core.Program
	image execute.Inputs
	first *compile.Result // the result every later compilation must equal
	last  *compile.Result
}

func (w *compileFull) clients() int            { return 1 }
func (w *compileFull) tailPercentile() float64 { return 75 }
func (w *compileFull) close()                  { w.progs = nil }

func (w *compileFull) setup(tr *tracer) error {
	rng := rand.New(rand.NewSource(w.seed))
	w.progs = nil
	for _, n := range []struct {
		label string
		net   *nn.Network
	}{
		{"industrial", nn.Industrial(nn.FullConfig())},
		{"squeezenet", nn.SqueezeNetCIFAR(nn.FullConfig())},
	} {
		p := &fullProgram{label: n.label}
		if _, err := timed(tr, "builder.build", noSpan, -1, func() (err error) {
			p.prog, err = nn.BuildProgram(n.net, nn.RandomWeights(n.net, rng))
			return err
		}); err != nil {
			return err
		}
		p.image = nn.RandomImage(n.net, rng)
		w.progs = append(w.progs, p)
	}
	return nil
}

// op compiles both programs. Every result must have the shape of the first
// one, which finish checks against the source program's cleartext output.
func (w *compileFull) op(_, _ int, tr *tracer, id int) (float64, error) {
	root := tr.begin("op", noSpan, id)
	defer tr.end(root)
	for _, p := range w.progs {
		res, err := compileTraced(tr, "compile."+p.label, root, id, p.prog, insecureOptions())
		if err != nil {
			return 0, fmt.Errorf("%s: %w", p.label, err)
		}
		if p.first == nil {
			p.first = res
		}
		if err := sameShape(p.first, res); err != nil {
			return 0, fmt.Errorf("%s: compilation is not repeatable: %w", p.label, err)
		}
		p.last = res
	}
	return 0, nil
}

func sameShape(a, b *compile.Result) error {
	switch {
	case a.CompiledStats.Terms != b.CompiledStats.Terms:
		return fmt.Errorf("%d terms, then %d", a.CompiledStats.Terms, b.CompiledStats.Terms)
	case a.LogN != b.LogN:
		return fmt.Errorf("logN %d, then %d", a.LogN, b.LogN)
	case !slices.Equal(a.Plan.BitSizes, b.Plan.BitSizes):
		return fmt.Errorf("chain %v, then %v", a.Plan.BitSizes, b.Plan.BitSizes)
	case !slices.Equal(a.RotationSteps, b.RotationSteps):
		return fmt.Errorf("rotation steps %v, then %v", a.RotationSteps, b.RotationSteps)
	}
	return nil
}

// finish evaluates the last compiled programs and their sources in cleartext
// on the generated images; the reference is the source program's output.
func (w *compileFull) finish() (float64, error) {
	maxErr := 0.0
	for _, p := range w.progs {
		if p.last == nil {
			return maxErr, fmt.Errorf("%s: nothing was compiled", p.label)
		}
		want, err := execute.RunReference(p.prog, p.image)
		if err != nil {
			return maxErr, err
		}
		got, err := execute.RunReference(p.last.Program, p.image)
		if err != nil {
			return maxErr, fmt.Errorf("%s: compiled program: %w", p.label, err)
		}
		e, err := compareOutputs(got, want, compileTolerance)
		maxErr = max(maxErr, e)
		if err != nil {
			return maxErr, fmt.Errorf("%s: %w", p.label, err)
		}
	}
	return maxErr, nil
}

func (w *compileFull) probes(tr *tracer, lm layerMetrics) error {
	for _, p := range w.progs {
		if err := replayCompile(tr, lm, p.prog, insecureOptions()); err != nil {
			return err
		}
	}
	return probeParse(tr, lm, w.seed)
}

func (w *compileFull) layers(tr *tracer, lm layerMetrics, _ latencies) {
	lm["builder.build_ms"] = tr.setupMS("builder.build")
	for _, p := range w.progs {
		ms, _ := tr.perOp(named("compile." + p.label))
		lm["compile."+p.label+"_ms"] = median(ms)
		compilerCounts(lm, p.last)
	}
}
