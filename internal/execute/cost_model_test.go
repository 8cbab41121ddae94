package execute_test

import (
	"math/rand"
	"slices"
	"testing"

	"eva/internal/analysis"
	"eva/internal/apps"
	"eva/internal/compile"
	"eva/internal/core"
	"eva/internal/execute"
	"eva/internal/nn"
)

// TestCostModelMatchesRun holds the compiler's price list to the executor: on
// Sobel, Harris, bench LeNet-5-small (steps repeated inside hoist sets) and
// bench SqueezeNet (values left over Q∪P for fused chains, sums and
// rescales), the decompositions, key applications, mod-downs and fused
// rescales compile.Result.Cost charges, read off each instruction's
// InstrUnits, are the ones a sequential run performs. The run's side is one
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
			for _, in := range res.Instrs {
				if in.DeferModDown {
					deferred++
				}
				if !in.Cipher || !in.Term.Op.IsRotation() {
					continue
				}
				if in.Hoist >= 0 && slices.Index(res.Hoists[in.Hoist].Steps, in.Rot) < int(in.HoistPos) {
					repeated++
				}
			}

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
			// Cost sums InstrUnits: read what it charges each key switch, each
			// mod-down and each fused rescale off its units.
			m := res.CostModel()
			leaf := 2 * float64(int(1)<<res.LogN) * float64(len(res.Plan.SpecialBits))
			var decompositions, keys, modDowns, fused int
			total := 0.0
			for i, in := range res.Instrs {
				units := res.InstrUnits(int32(i))
				total += units
				d, k, md := m.KeySwitchUnits(in.Level)
				op := in.Term.Op
				switch {
				case !in.Cipher || in.Term.IsLeaf():
					continue
				case in.Chain != nil || op == core.OpAdd || op == core.OpSub:
					// A chain root or sum: its sum, plus for a chain root the
					// special-limb products of its deferred leaves, plus the
					// lift of a Q-only operand of a deferred one and a
					// mod-down unless its result stays deferred.
					sum := m.OpUnits(op, in.Level, false)
					lift := m.KeySwitchPrice(analysis.KeySwitch{Level: in.Level, Lift: true})
					found := units == sum
					for _, extra := range [][2]float64{{md, 0}, {md, lift}, {0, lift}, {0, 0}} {
						leaves := (units - sum - extra[0] - extra[1]) / leaf
						if found || (in.Chain == nil && leaves != 0) || (in.Chain != nil && leaves < 1) || leaves != float64(int(leaves)) {
							continue
						}
						if found = true; extra[0] != 0 {
							modDowns += 2
						}
					}
					if !found {
						t.Errorf("%s is charged %v units: not its sum (%v), with or without a lift (%v) and a mod-down (%v), and whole leaves of a chain root", in.Term, units, sum, lift, md)
					}
					continue
				case op == core.OpRescale:
					switch operand := res.Instrs[in.Parms[0]]; units {
					case m.FusedRescaleUnits(operand.Level):
						fused++
					case m.OpUnits(op, in.Level, false):
					default:
						t.Errorf("%s is charged %v units: not a rescale nor a fused one", in.Term, units)
					}
					continue
				case op != core.OpRelinearize && !op.IsRotation():
					continue
				}
				switch units {
				case d + k + md:
					decompositions++
					keys++
					modDowns += 2
				case d + k: // deferring its mod-down
					decompositions++
					keys++
				case k + md:
					keys++
					modDowns += 2
				case k:
					keys++
				case 0: // a repeated step
				default:
					t.Errorf("%s is charged %v units: not a whole switch, a key with or without its mod-down, or nothing", in.Term, units)
				}
			}
			if est := res.Cost(); est.Total != total {
				t.Fatalf("Cost charges %v units, its instructions %v", est.Total, total)
			}
			if want := out.Stats.HoistedBatches + relinearized + lone; decompositions != want {
				t.Errorf("Cost charges %d decompositions; the run made %d (%d batches, %d relinearizations, %d lone rotations)",
					decompositions, want, out.Stats.HoistedBatches, relinearized, lone)
			}
			if got, want := keys, out.Stats.HoistedRotations+relinearized+lone; got != want {
				t.Errorf("Cost charges %d key applications; the run made %d (%d hoisted steps, %d relinearizations, %d lone rotations)",
					got, want, out.Stats.HoistedRotations, relinearized, lone)
			}
			if modDowns != out.Stats.ModDowns {
				t.Errorf("Cost charges %d mod-downs; the run made %d", modDowns, out.Stats.ModDowns)
			}
			if fused != out.Stats.FusedRescales {
				t.Errorf("Cost charges %d fused rescales; the run made %d", fused, out.Stats.FusedRescales)
			}
			fusedRescales += fused
		})
	}
	if !raceEnabled && (repeated == 0 || deferred == 0 || fusedRescales == 0) {
		t.Errorf("the corpus no longer exercises every pricing case: %d repeated steps, %d deferred mod-downs, %d fused rescales",
			repeated, deferred, fusedRescales)
	}
}
