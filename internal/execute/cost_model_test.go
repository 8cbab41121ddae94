package execute_test

import (
	"math/rand"
	"testing"

	"eva/internal/apps"
	"eva/internal/compile"
	"eva/internal/core"
	"eva/internal/execute"
	"eva/internal/nn"
)

// TestCostModelMatchesRun holds the compiler's key-switching work to the
// executor: on Sobel, Harris, bench LeNet-5-small (steps repeated inside hoist
// sets) and bench SqueezeNet (values left over Q∪P for fused chains, sums and
// rescales), the decompositions, key applications, mod-downs and fused
// rescales the instructions' Work states are the ones a sequential run
// performs, and Cost is the sum of their InstrUnits. The run's side is one
// decomposition per hoisted batch (RunStats.HoistedBatches), one key per
// distinct step a batch covers (RunStats.HoistedRotations), one of each per
// relinearization and per rotation outside a batch, and the mod-downs and
// fused rescales it counted (RunStats.ModDowns, RunStats.FusedRescales).
func TestCostModelMatchesRun(t *testing.T) {
	type program struct {
		name string
		prog *core.Program
		in   execute.Inputs
	}
	var corpus []program
	for _, mk := range []func(int) (*apps.App, error){apps.SobelFilter, apps.HarrisCornerDetection} {
		app, err := mk(8)
		if err != nil {
			t.Fatal(err)
		}
		corpus = append(corpus, program{app.Name, app.Program, app.MakeInputs(rand.New(rand.NewSource(3)))})
	}
	if !raceEnabled {
		for _, net := range []*nn.Network{nn.LeNet5Small(nn.BenchConfig()), nn.SqueezeNetCIFAR(nn.BenchConfig())} {
			rng := rand.New(rand.NewSource(1))
			prog, err := nn.BuildProgram(net, nn.RandomWeights(net, rng))
			if err != nil {
				t.Fatal(err)
			}
			corpus = append(corpus, program{net.Name, prog, nn.RandomImage(net, rng)})
		}
	}

	var repeated, deferred, fusedRescales int
	for _, p := range corpus {
		t.Run(p.name, func(t *testing.T) {
			res := compileInsecure(t, p.prog, compile.DefaultOptions())
			f := newFixture(t, res, p.in, 7)
			var relinearized, lone int
			out := f.run(t, execute.RunOptions{
				Scheduler: execute.SchedulerSequential,
				OnInstruction: func(term *core.Term, rec execute.InstrRecord) {
					switch {
					case !rec.Cipher || rec.Hoisted:
					case term.Op == core.OpRelinearize:
						relinearized++
					case term.Op.IsRotation():
						lone++
					}
				},
			})
			var decompositions, keys, modDowns, fused int
			total := 0.0
			for i, in := range res.Instrs {
				total += res.InstrUnits(int32(i))
				w := in.Work
				if w.Decompose {
					decompositions++
				}
				if w.ApplyKey {
					keys++
				}
				if w.ModDown {
					modDowns += 2 // one per component
				}
				if w.Rescale {
					fused++
				}
				if in.Basis == compile.BasisQP {
					deferred++
				}
				if in.Hoist >= 0 && !w.ApplyKey {
					repeated++
				}
			}
			if est := res.Cost(); est.Total != total {
				t.Fatalf("Cost charges %v units, its instructions %v", est.Total, total)
			}
			if want := out.Stats.HoistedBatches + relinearized + lone; decompositions != want {
				t.Errorf("Work states %d decompositions; the run made %d (%d batches, %d relinearizations, %d lone rotations)",
					decompositions, want, out.Stats.HoistedBatches, relinearized, lone)
			}
			if want := out.Stats.HoistedRotations + relinearized + lone; keys != want {
				t.Errorf("Work states %d key applications; the run made %d (%d hoisted steps, %d relinearizations, %d lone rotations)",
					keys, want, out.Stats.HoistedRotations, relinearized, lone)
			}
			if modDowns != out.Stats.ModDowns {
				t.Errorf("Work states %d mod-downs; the run made %d", modDowns, out.Stats.ModDowns)
			}
			if fused != out.Stats.FusedRescales {
				t.Errorf("Work states %d fused rescales; the run made %d", fused, out.Stats.FusedRescales)
			}
			fusedRescales += fused
		})
	}
	if !raceEnabled && (repeated == 0 || deferred == 0 || fusedRescales == 0) {
		t.Errorf("the corpus no longer exercises every pricing case: %d repeated steps, %d deferred mod-downs, %d fused rescales",
			repeated, deferred, fusedRescales)
	}
}
