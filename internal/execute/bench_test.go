package execute_test

import (
	"testing"

	"eva/internal/compile"
	"eva/internal/execute"
)

// BenchmarkPlannedExecute measures one encrypted inference of the
// bench-config SqueezeNet (N = 2^10, parallel scheduler) — the repo
// benchmark's nn_infer operation — cold (the program's first run, which
// encodes every constant into the empty plaintext cache on first use;
// nothing else is built at run time) and warm (the steady state of a
// server). Compilation and key generation are outside the timed region.
func BenchmarkPlannedExecute(b *testing.B) {
	prog, image := benchSqueezeNet(b)
	f := newFixture(b, compileInsecure(b, prog, compile.DefaultOptions()), image, 1)
	ropts := execute.RunOptions{Scheduler: execute.SchedulerParallel}

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			// A fresh result has an empty cache; the context and inputs carry
			// over because compilation is deterministic.
			res := compileUnreleased(b, prog, compile.DefaultOptions())
			b.StartTimer()
			if _, err := execute.Run(f.ctx, res, f.enc, ropts); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			compile.ReleasePlan(res)
			b.StartTimer()
		}
	})
	b.Run("warm", func(b *testing.B) {
		f.run(b, ropts)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f.run(b, ropts)
		}
	})
}
