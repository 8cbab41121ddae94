// Package bench is the harness for the paper's evaluation (Section 8). It
// runs the networks and applications, prints Tables 3-8 and Figure 7 next to
// the paper's numbers, and checks the paper's machine-independent claims on
// the same results (claims.go). cmd/evabench is its command line.
package bench

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"text/tabwriter"
	"time"

	"eva/internal/apps"
	"eva/internal/chet"
	"eva/internal/ckks"
	"eva/internal/compile"
	"eva/internal/core"
	"eva/internal/execute"
	"eva/internal/nn"
)

// Options configures the experiment harness.
type Options struct {
	// Config selects the network instantiation size (nn.BenchConfig by default).
	Config nn.Config
	// Workers is the number of executor threads (0 = GOMAXPROCS), the
	// "56 threads" column of Table 5.
	Workers int
	// Secure selects 128-bit-secure parameters for the encrypted runs (the
	// paper's setting); when false, scaled-down insecure parameters are
	// allowed so the runs are quick. Table 6 is at 128-bit security either way.
	Secure bool
	// Seed drives all randomness (weights, inputs, keys) for reproducibility.
	Seed int64
}

// DefaultOptions returns the scaled-down configuration evabench runs by default.
func DefaultOptions() Options {
	return Options{Config: nn.BenchConfig(), Seed: 1}
}

func (o Options) normalize() Options {
	if o.Config.InputSize == 0 {
		o.Config = nn.BenchConfig()
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// Params are the encryption parameters a compiler selected (Table 6) and the
// estimated cost of its program at them.
type Params struct {
	LogN, LogQP, Primes int
	Cost                float64 // compile.Result.Cost().Total
}

// pipeline is a compiler with the executor schedule it is measured under.
type pipeline struct {
	name    string
	compile func(*core.Program, compile.Options) (*compile.Result, error)
	sched   execute.Scheduler
}

var (
	evaPipeline = pipeline{"EVA", compile.Compile, execute.SchedulerParallel}
	// chetPipeline is the baseline: CHET's compiler and its bulk-synchronous
	// executor.
	chetPipeline = pipeline{"CHET", chet.Compile, chet.RunOptions(0).Scheduler}
	// appPipeline runs Table 8 as the paper does, on one thread.
	appPipeline = pipeline{"EVA", compile.Compile, execute.SchedulerSequential}
)

// PipelineResult is one pipeline on one program: one compile, one key set
// and one encryption, then one run at each requested worker count.
type PipelineResult struct {
	Name                                               string
	CompileTime, ContextTime, EncryptTime, DecryptTime time.Duration
	// Latency is the wall time of the run at each worker count.
	Latency map[int]time.Duration
	// Outputs are the decrypted outputs of the last run; MaxError is their
	// largest distance from the reference (NaN if any output is NaN).
	Outputs  map[string][]float64
	MaxError float64
}

// runPipeline compiles prog with pl, builds the context, encrypts in, runs
// the program once at each worker count, decrypts, and measures the error
// against want, which may cover a prefix of each output.
func runPipeline(pl pipeline, prog *core.Program, copts compile.Options, in execute.Inputs,
	want map[string][]float64, workers []int, seed int64) (*PipelineResult, error) {

	pr := &PipelineResult{Name: pl.name, Latency: map[int]time.Duration{}}
	start := time.Now()
	res, err := pl.compile(prog, copts)
	if err != nil {
		return nil, err
	}
	pr.CompileTime = time.Since(start)

	prng := ckks.NewTestPRNG(uint64(seed))
	ctx, keys, err := execute.NewContext(res, prng)
	if err != nil {
		return nil, err
	}
	pr.ContextTime = ctx.KeyGenTime
	enc, err := execute.EncryptInputs(ctx, res, keys, in, prng)
	if err != nil {
		return nil, err
	}
	pr.EncryptTime = enc.EncryptTime

	var out *execute.Outputs
	for _, w := range workers {
		if _, done := pr.Latency[w]; done {
			continue
		}
		start = time.Now()
		if out, err = execute.Run(ctx, res, enc, execute.RunOptions{Workers: w, Scheduler: pl.sched}); err != nil {
			return nil, err
		}
		pr.Latency[w] = time.Since(start)
	}

	pr.Outputs, pr.DecryptTime = execute.DecryptOutputs(ctx, res, keys, out)
	for name, w := range want {
		for i, v := range w {
			pr.MaxError = math.Max(pr.MaxError, math.Abs(pr.Outputs[name][i]-v))
		}
	}
	return pr, nil
}

// NetworkResult is one network under both pipelines.
type NetworkResult struct {
	Network *nn.Network
	// EVAParams and CHETParams are what each compiler selects at 128-bit
	// security (Table 6), from a compile-only pass.
	EVAParams, CHETParams Params
	// Workers is Table 5's thread count. Reference, EVA and CHET are nil for
	// a network that was only compiled.
	Workers   int
	Reference []float64
	EVA, CHET *PipelineResult
}

// Speedup returns CHET latency divided by EVA latency at Table 5's thread
// count.
func (r *NetworkResult) Speedup() float64 {
	eva := r.EVA.Latency[r.Workers]
	if eva <= 0 {
		return 0
	}
	return float64(r.CHET.Latency[r.Workers]) / float64(eva)
}

// Agrees reports whether pr classifies the image as the reference does.
func (r *NetworkResult) Agrees(pr *PipelineResult) bool {
	n := r.Network.NumClasses
	return nn.Argmax(pr.Outputs["scores"], n) == nn.Argmax(r.Reference, n)
}

// CompileNetwork builds net's program from opts.Seed and compiles it with
// both pipelines at 128-bit security, running nothing: Table 6's row.
func CompileNetwork(net *nn.Network, opts Options) (*NetworkResult, error) {
	opts = opts.normalize()
	prog, _, err := networkProgram(net, opts.Seed)
	if err != nil {
		return nil, err
	}
	return compileSecure(net, prog, opts)
}

// RunNetwork is CompileNetwork followed by one encrypted inference per
// pipeline, run at opts.Workers and at each of threads: Tables 4, 5 and 7
// and Figure 7 all read these runs.
func RunNetwork(net *nn.Network, opts Options, threads []int) (*NetworkResult, error) {
	opts = opts.normalize()
	prog, image, err := networkProgram(net, opts.Seed)
	if err != nil {
		return nil, err
	}
	r, err := compileSecure(net, prog, opts)
	if err != nil {
		return nil, err
	}
	ref, err := execute.RunReference(prog, image)
	if err != nil {
		return nil, fmt.Errorf("bench: reference inference for %s: %w", net.Name, err)
	}
	r.Reference = ref["scores"][:net.NumClasses]

	copts := compile.DefaultOptions()
	copts.AllowInsecure = !opts.Secure
	want := map[string][]float64{"scores": r.Reference}
	workers := append([]int{opts.Workers}, threads...)
	if r.EVA, err = runPipeline(evaPipeline, prog, copts, image, want, workers, opts.Seed+1000); err != nil {
		return nil, fmt.Errorf("bench: EVA pipeline for %s: %w", net.Name, err)
	}
	if r.CHET, err = runPipeline(chetPipeline, prog, copts, image, want, workers, opts.Seed+1000); err != nil {
		return nil, fmt.Errorf("bench: CHET pipeline for %s: %w", net.Name, err)
	}
	return r, nil
}

// networkProgram builds net with random weights and draws an input image,
// both from seed.
func networkProgram(net *nn.Network, seed int64) (*core.Program, execute.Inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	prog, err := nn.BuildProgram(net, nn.RandomWeights(net, rng))
	if err != nil {
		return nil, nil, fmt.Errorf("bench: building %s: %w", net.Name, err)
	}
	return prog, nn.RandomImage(net, rng), nil
}

// compileSecure compiles prog with both pipelines at the default 128-bit
// security and records the selected parameters.
func compileSecure(net *nn.Network, prog *core.Program, opts Options) (*NetworkResult, error) {
	r := &NetworkResult{Network: net, Workers: opts.Workers}
	for _, p := range []struct {
		pl  pipeline
		dst *Params
	}{{evaPipeline, &r.EVAParams}, {chetPipeline, &r.CHETParams}} {
		res, err := p.pl.compile(prog, compile.DefaultOptions())
		if err != nil {
			return nil, fmt.Errorf("bench: %s at 128-bit security for %s: %w", p.pl.name, net.Name, err)
		}
		*p.dst = Params{LogN: res.LogN, LogQP: res.Plan.LogQP(), Primes: res.Plan.NumPrimes(), Cost: res.Cost().Total}
	}
	return r, nil
}

// AppResult is one row of Table 8.
type AppResult struct {
	App *apps.App
	Run *PipelineResult
}

// RunApplication measures one application of Table 8 on a single thread, as
// in the paper, against its plain reference.
func RunApplication(app *apps.App, opts Options) (*AppResult, error) {
	opts = opts.normalize()
	in := app.MakeInputs(rand.New(rand.NewSource(opts.Seed)))
	copts := compile.DefaultOptions()
	copts.AllowInsecure = !opts.Secure
	run, err := runPipeline(appPipeline, app.Program, copts, in, app.Plain(in), []int{1}, opts.Seed+2000)
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %w", app.Name, err)
	}
	return &AppResult{App: app, Run: run}, nil
}

// --- Table printers ---

func newTable(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

// PrintTable3 prints the inventory of the given networks (Table 3) next to
// the paper's layer counts.
func PrintTable3(w io.Writer, nets []*nn.Network) {
	tw := newTable(w)
	fmt.Fprintln(w, "Table 3: Deep Neural Networks used in the evaluation")
	fmt.Fprintln(tw, "Network\tConv\tFC\tAct\tPaper FP ops\tPaper accuracy (%)")
	for _, n := range nets {
		conv, fc, act := n.CountLayers()
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%.2f\n", n.Name, conv, fc, act, n.Paper.FPOperations, n.Paper.UnencryptedAccuracy)
	}
	tw.Flush()
}

// PrintTable4 prints the scale profile and encrypted-vs-reference agreement
// (the offline analogue of Table 4's accuracy columns).
func PrintTable4(w io.Writer, results []*NetworkResult) {
	tw := newTable(w)
	fmt.Fprintln(w, "Table 4: input/output scales and encrypted-inference fidelity")
	fmt.Fprintln(tw, "Network\tCipher\tVector\tScalar\tOutput\tCHET max err\tEVA max err\tCHET agree\tEVA agree\tPaper CHET acc\tPaper EVA acc")
	for _, r := range results {
		s := r.Network.Scales
		fmt.Fprintf(tw, "%s\t%.0f\t%.0f\t%.0f\t%.0f\t%.2e\t%.2e\t%v\t%v\t%.2f\t%.2f\n",
			r.Network.Name, s.Cipher, s.Vector, s.Scalar, s.Output,
			r.CHET.MaxError, r.EVA.MaxError, r.Agrees(r.CHET), r.Agrees(r.EVA),
			r.Network.Paper.CHETAccuracy, r.Network.Paper.EVAAccuracy)
	}
	tw.Flush()
}

// PrintTable5 prints latencies and the EVA speedup next to the paper's
// numbers.
func PrintTable5(w io.Writer, results []*NetworkResult) {
	threads := 0
	if len(results) > 0 {
		threads = results[0].Workers
	}
	tw := newTable(w)
	fmt.Fprintf(w, "Table 5: average latency on %d threads (measured, this backend) vs paper (56 threads)\n", threads)
	fmt.Fprintln(tw, "Network\tCHET (s)\tEVA (s)\tSpeedup\tPaper CHET (s)\tPaper EVA (s)\tPaper speedup")
	for _, r := range results {
		paperSpeedup := 0.0
		if r.Network.Paper.EVALatency > 0 {
			paperSpeedup = r.Network.Paper.CHETLatency / r.Network.Paper.EVALatency
		}
		fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%.2fx\t%.1f\t%.1f\t%.1fx\n",
			r.Network.Name, r.CHET.Latency[r.Workers].Seconds(), r.EVA.Latency[r.Workers].Seconds(), r.Speedup(),
			r.Network.Paper.CHETLatency, r.Network.Paper.EVALatency, paperSpeedup)
	}
	tw.Flush()
}

// PrintTable6 prints the parameters selected at 128-bit security next to the
// paper's.
func PrintTable6(w io.Writer, results []*NetworkResult) {
	tw := newTable(w)
	fmt.Fprintln(w, "Table 6: encryption parameters selected by CHET and EVA (128-bit security)")
	fmt.Fprintln(tw, "Network\tCHET logN\tCHET logQ\tCHET r\tEVA logN\tEVA logQ\tEVA r\tPaper CHET (logN,logQ,r)\tPaper EVA (logN,logQ,r)")
	for _, r := range results {
		p, c, e := r.Network.Paper, r.CHETParams, r.EVAParams
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t(%d,%d,%d)\t(%d,%d,%d)\n",
			r.Network.Name, c.LogN, c.LogQP, c.Primes, e.LogN, e.LogQP, e.Primes,
			p.CHETLogN, p.CHETLogQ, p.CHETPrimes, p.EVALogN, p.EVALogQ, p.EVAPrimes)
	}
	tw.Flush()
}

// PrintTable7 prints compilation, context, encryption, and decryption times
// for the EVA pipeline next to the paper's numbers.
func PrintTable7(w io.Writer, results []*NetworkResult) {
	tw := newTable(w)
	fmt.Fprintln(w, "Table 7: compilation, encryption context, encryption, and decryption time (EVA)")
	fmt.Fprintln(tw, "Network\tCompile (s)\tContext (s)\tEncrypt (s)\tDecrypt (s)\tPaper (compile/context/enc/dec)")
	for _, r := range results {
		p := r.Network.Paper
		fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%.3f\t%.3f\t%.2f/%.2f/%.2f/%.2f\n",
			r.Network.Name, r.EVA.CompileTime.Seconds(), r.EVA.ContextTime.Seconds(),
			r.EVA.EncryptTime.Seconds(), r.EVA.DecryptTime.Seconds(),
			p.CompileTime, p.ContextTime, p.EncryptTime, p.DecryptTime)
	}
	tw.Flush()
}

// PrintTable8 prints the application results next to the paper's Table 8.
func PrintTable8(w io.Writer, results []*AppResult) {
	tw := newTable(w)
	fmt.Fprintln(w, "Table 8: arithmetic, statistical ML and image processing applications (1 thread)")
	fmt.Fprintln(tw, "Application\tVector size\tLoC\tTime (s)\tMax err\tPaper vector size\tPaper LoC\tPaper time (s)")
	for _, r := range results {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.3f\t%.2e\t%d\t%d\t%.3f\n",
			r.App.Name, r.App.Program.VecSize, r.App.LinesOfCode, r.Run.Latency[1].Seconds(), r.Run.MaxError,
			r.App.Paper.VectorSize, r.App.Paper.LinesOfCode, r.App.Paper.TimeSeconds)
	}
	tw.Flush()
}

// PrintFigure7 prints the strong-scaling series of Figure 7: each network's
// latency at every thread count, which RunNetwork must have been given.
func PrintFigure7(w io.Writer, results []*NetworkResult, threads []int) {
	threads = slices.Compact(slices.Sorted(slices.Values(threads)))
	fmt.Fprintln(w, "Figure 7: strong scaling of CHET and EVA (average latency in seconds)")
	tw := newTable(w)
	header := "Network\tPipeline"
	for _, t := range threads {
		header += fmt.Sprintf("\t%d thr", t)
	}
	fmt.Fprintln(tw, header+"\tSpeedup(max/1)")
	for _, r := range results {
		for _, pr := range []*PipelineResult{r.CHET, r.EVA} {
			row := r.Network.Name + "\t" + pr.Name
			for _, t := range threads {
				row += fmt.Sprintf("\t%.3f", pr.Latency[t].Seconds())
			}
			speedup := "-"
			if n := len(threads); n > 1 && pr.Latency[threads[n-1]] > 0 {
				speedup = fmt.Sprintf("%.2fx", float64(pr.Latency[threads[0]])/float64(pr.Latency[threads[n-1]]))
			}
			fmt.Fprintln(tw, row+"\t"+speedup)
		}
	}
	tw.Flush()
}
