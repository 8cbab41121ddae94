// Ablation benchmarks for the compiler's design choices: the rescale
// strategy, the modulus-switch strategy and the scheduler. The paper's
// tables and Figure 7 come from cmd/evabench (internal/bench), which also
// checks the paper's claims; these measure what no table reports.
package eva_test

import (
	"testing"

	"eva/internal/apps"
	"eva/internal/chet"
	"eva/internal/ckks"
	"eva/internal/compile"
	"eva/internal/execute"
	"eva/internal/rewrite"
)

// BenchmarkAblationRescaleStrategy compares the paper's waterline insertion
// against the per-multiply always-rescale rule and against the CHET-style
// uniform-scale fixed rescaling on the Harris program, reporting the
// resulting modulus chain length and size (the optimization target of
// Section 5.3). The fixed-maximum discipline requires CHET's uniform 60-bit
// working scale, so that case goes through the chet pipeline.
func BenchmarkAblationRescaleStrategy(b *testing.B) {
	app, err := apps.HarrisCornerDetection(16)
	if err != nil {
		b.Fatal(err)
	}
	opts := compile.DefaultOptions()
	opts.AllowInsecure = true
	cases := map[string]func() (*compile.Result, error){
		"waterline": func() (*compile.Result, error) {
			return compile.Compile(app.Program, opts)
		},
		"always": func() (*compile.Result, error) {
			o := opts
			o.Rescale = rewrite.RescaleAlways
			o.ModSwitch = rewrite.ModSwitchLazy
			return compile.Compile(app.Program, o)
		},
		"chet-fixed-max": func() (*compile.Result, error) {
			return chet.Compile(app.Program, opts)
		},
	}
	for name, compileFn := range cases {
		b.Run(name, func(b *testing.B) {
			var res *compile.Result
			var err error
			for i := 0; i < b.N; i++ {
				res, err = compileFn()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Plan.NumPrimes()), "primes")
			b.ReportMetric(float64(res.Plan.LogQP()), "logQ")
		})
	}
}

// BenchmarkAblationModSwitch compares eager and lazy modulus-switch insertion
// on the Sobel program, reporting the number of inserted MOD_SWITCH
// instructions and compiled program size.
func BenchmarkAblationModSwitch(b *testing.B) {
	app, err := apps.SobelFilter(16)
	if err != nil {
		b.Fatal(err)
	}
	for name, strategy := range map[string]rewrite.ModSwitchStrategy{
		"eager": rewrite.ModSwitchEager,
		"lazy":  rewrite.ModSwitchLazy,
	} {
		b.Run(name, func(b *testing.B) {
			opts := compile.DefaultOptions()
			opts.AllowInsecure = true
			opts.ModSwitch = strategy
			var res *compile.Result
			var err error
			for i := 0; i < b.N; i++ {
				res, err = compile.Compile(app.Program, opts)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.CompiledStats.Instructions["MOD_SWITCH"]), "modswitches")
			b.ReportMetric(float64(res.CompiledStats.Terms), "terms")
		})
	}
}

// BenchmarkAblationScheduler compares EVA's asynchronous DAG scheduler with
// the bulk-synchronous baseline and sequential execution on the same compiled
// program (the execution-side half of the paper's speedup).
func BenchmarkAblationScheduler(b *testing.B) {
	app, err := apps.HarrisCornerDetection(16)
	if err != nil {
		b.Fatal(err)
	}
	opts := compile.DefaultOptions()
	opts.AllowInsecure = true
	res, err := compile.Compile(app.Program, opts)
	if err != nil {
		b.Fatal(err)
	}
	prng := ckks.NewTestPRNG(1)
	ctx, keys, err := execute.NewContext(res, prng)
	if err != nil {
		b.Fatal(err)
	}
	in := app.MakeInputs(newRand(1))
	enc, err := execute.EncryptInputs(ctx, res, keys, in, prng)
	if err != nil {
		b.Fatal(err)
	}
	for name, sched := range map[string]execute.Scheduler{
		"parallel":         execute.SchedulerParallel,
		"bulk-synchronous": execute.SchedulerBulkSynchronous,
		"sequential":       execute.SchedulerSequential,
	} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := execute.Run(ctx, res, enc, execute.RunOptions{Scheduler: sched}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
