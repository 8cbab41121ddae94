package execute_test

import (
	"fmt"
	"math/rand"
	"testing"

	"eva/internal/compile"
	"eva/internal/core"
	"eva/internal/execute"
)

// treeBuilder assembles add-tree programs for the fusion tests: three Cipher
// inputs, one run-dependent plain input, and as many distinct constants as
// the tree asks for.
type treeBuilder struct {
	t   testing.TB
	p   *core.Program
	rng *rand.Rand
	xs  []*core.Term
	v   *core.Term
}

const treeVec = 8

// treeTolerance bounds the error of a tree program's encrypted run against
// RunReference.
const treeTolerance = 1e-3

func newTreeBuilder(t testing.TB, seed int64) *treeBuilder {
	b := &treeBuilder{t: t, p: core.MustNewProgram("tree", treeVec), rng: rand.New(rand.NewSource(seed))}
	for i := 0; i < 3; i++ {
		x, err := b.p.NewInput(fmt.Sprintf("x%d", i), core.TypeCipher, treeVec, 30)
		if err != nil {
			t.Fatal(err)
		}
		b.xs = append(b.xs, x)
	}
	v, err := b.p.NewInput("v", core.TypeVector, treeVec, 30)
	if err != nil {
		t.Fatal(err)
	}
	b.v = v
	return b
}

func (b *treeBuilder) x() *core.Term { return b.xs[b.rng.Intn(len(b.xs))] }

func (b *treeBuilder) constant() *core.Term {
	vals := make([]float64, treeVec)
	for i := range vals {
		vals[i] = b.rng.Float64()*2 - 1
	}
	c, err := b.p.NewConstant(vals, 30)
	if err != nil {
		b.t.Fatal(err)
	}
	return c
}

func (b *treeBuilder) bin(op core.OpCode, l, r *core.Term) *core.Term {
	n, err := b.p.NewBinary(op, l, r)
	if err != nil {
		b.t.Fatal(err)
	}
	return n
}

// product is a fusable leaf: a ciphertext times a fresh constant.
func (b *treeBuilder) product() *core.Term { return b.bin(core.OpMultiply, b.x(), b.constant()) }

// rotation rotates a ciphertext input left by a step in [1, treeVec).
func (b *treeBuilder) rotation() *core.Term { return b.rotate(1 + b.rng.Intn(treeVec-1)) }

// rotate rotates one of the ciphertext inputs left by step.
func (b *treeBuilder) rotate(step int) *core.Term {
	r, err := b.p.NewRotation(core.OpRotateLeft, b.x(), step)
	if err != nil {
		b.t.Fatal(err)
	}
	return r
}

// times multiplies a ciphertext by a fresh constant: a fusable leaf.
func (b *treeBuilder) times(ct *core.Term) *core.Term {
	return b.bin(core.OpMultiply, ct, b.constant())
}

func (b *treeBuilder) add(l, r *core.Term) *core.Term { return b.bin(core.OpAdd, l, r) }

func (b *treeBuilder) output(name string, t *core.Term) {
	if err := b.p.AddOutput(name, t, 30); err != nil {
		b.t.Fatal(err)
	}
}

// runBothWays executes the program cold, warm and as the reference lowering
// (fixture.runReference) on identical keys and inputs. Cold and warm outputs
// are byte-identical and within treeTolerance of RunReference on the source
// program; so is the reference run unless the program defers
// mod-downs, when the warm run's error against RunReference is at most 1.25×
// its. It returns the statistics and serialized outputs of the warm run.
func runBothWays(t *testing.T, prog *core.Program, sched execute.Scheduler) (execute.RunStats, map[string][]byte) {
	t.Helper()
	in := randomInputs(prog, 9)
	f := newFixture(t, compileInsecure(t, prog, compile.DefaultOptions()), in, 43)
	ropts := execute.RunOptions{Scheduler: sched, Workers: 2}
	cold := f.run(t, ropts)
	fused := f.run(t, ropts)
	plain := f.runReference(t, ropts)
	out := serialized(t, fused)
	requireSameBytes(t, "cold vs warm", serialized(t, cold), out)
	want, err := execute.RunReference(prog, in)
	if err != nil {
		t.Fatal(err)
	}
	errOn := maxRunError(t, f, fused, want)
	if errOn > treeTolerance {
		t.Errorf("error %g against RunReference, more than %g", errOn, treeTolerance)
	}
	if !defers(f.res) {
		requireSameBytes(t, "fused vs unfused", out, serialized(t, plain))
	} else if errOff := maxRunError(t, f, plain, want); errOn > 1.25*errOff {
		t.Errorf("deferred mod-downs give error %g, more than 1.25× the unfused run's %g", errOn, errOff)
	}
	if fused.Stats.Instructions != plain.Stats.Instructions {
		t.Fatalf("fused run reports %d instructions, unfused %d", fused.Stats.Instructions, plain.Stats.Instructions)
	}
	return fused.Stats, out
}

// TestFusedChainShapes pins which add trees fuse: pure trees of single-use
// ct×constant products do, whole; SUB, multi-use leaves, leaves or sums that
// are program outputs, and run-dependent plain factors each stop the fusion
// exactly where they sit — and every shape still computes the same bytes.
func TestFusedChainShapes(t *testing.T) {
	cases := []struct {
		name          string
		build         func(b *treeBuilder)
		chains, terms int
	}{
		{"chain longer than the lazy accumulator", func(b *treeBuilder) {
			acc := b.product()
			for i := 1; i < 150; i++ {
				acc = b.add(acc, b.product())
			}
			b.output("out", acc)
		}, 1, 150 + 149},
		{"balanced tree", func(b *treeBuilder) {
			l := b.add(b.add(b.product(), b.product()), b.add(b.product(), b.product()))
			r := b.add(b.add(b.product(), b.product()), b.add(b.product(), b.product()))
			b.output("out", b.add(l, r))
		}, 1, 15},
		{"constant on the left", func(b *treeBuilder) {
			l := b.bin(core.OpMultiply, b.constant(), b.x())
			b.output("out", b.add(l, b.product()))
		}, 1, 3},
		{"SUB at the root cuts the tree in two", func(b *treeBuilder) {
			l, r := b.add(b.product(), b.product()), b.add(b.product(), b.product())
			b.output("out", b.bin(core.OpSub, l, r))
		}, 2, 6},
		{"SUB inside poisons the sums above it", func(b *treeBuilder) {
			s := b.bin(core.OpSub, b.product(), b.product())
			b.output("out", b.add(b.add(s, b.product()), b.product()))
		}, 0, 0},
		{"multi-use leaf", func(b *treeBuilder) {
			shared := b.product()
			l := b.add(b.add(shared, b.product()), b.add(b.product(), b.product()))
			b.output("out", b.add(l, shared))
		}, 1, 3},
		{"leaf that is a program output", func(b *treeBuilder) {
			leaf := b.product()
			b.output("leaf", leaf)
			b.output("out", b.add(b.add(leaf, b.product()), b.add(b.product(), b.product())))
		}, 1, 3},
		{"interior sum that is a program output", func(b *treeBuilder) {
			s := b.add(b.product(), b.product())
			b.output("partial", s)
			b.output("out", b.add(s, b.product()))
		}, 1, 3},
		{"run-dependent plain factor", func(b *treeBuilder) {
			l := b.bin(core.OpMultiply, b.x(), b.v)
			b.output("out", b.add(l, b.product()))
		}, 0, 0},
		{"rotated leaves, one shared and one also used outside the chain", func(b *treeBuilder) {
			shared, outside := b.rotation(), b.rotation()
			l := b.add(b.add(b.times(b.rotation()), b.times(shared)), b.add(b.times(shared), b.product()))
			b.output("out", b.add(b.add(l, b.times(outside)), b.times(b.rotation())))
			b.output("outside", b.add(outside, b.x()))
		}, 1, 11},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := newTreeBuilder(t, 3)
			tc.build(b)
			var reference map[string][]byte
			for name, sched := range schedulers {
				stats, out := runBothWays(t, b.p, sched)
				if stats.FusedChains != tc.chains || stats.FusedTerms != tc.terms {
					t.Errorf("%s: fused %d chains over %d terms, want %d over %d",
						name, stats.FusedChains, stats.FusedTerms, tc.chains, tc.terms)
				}
				if reference == nil {
					reference = out
				}
				requireSameBytes(t, name+" vs other schedulers", out, reference)
			}
		})
	}
}

// TestFusedRandomTrees is the property test: random trees mixing ADD and SUB
// over fusable products, products of rotations (identity rotations by 0 and
// ±treeVec among them, which Compile folds away), reused (multi-use) leaves,
// bare ciphertexts and run-dependent plain factors, some with extra outputs
// in the middle, compute the same bytes fused and unfused — or, where
// rotations defer their mod-downs, the same values within runBothWays' bound.
func TestFusedRandomTrees(t *testing.T) {
	steps := []int{0, treeVec, -treeVec}
	for k := 1; k < treeVec; k++ {
		steps = append(steps, k)
	}
	for seed := int64(0); seed < 12; seed++ {
		b := newTreeBuilder(t, seed)
		var made []*core.Term
		var grow func(depth int) *core.Term
		grow = func(depth int) *core.Term {
			var n *core.Term
			switch r := b.rng.Float64(); {
			case depth > 3 || (depth > 0 && r < 0.6):
				op := core.OpAdd
				if b.rng.Float64() < 0.08 {
					op = core.OpSub
				}
				n = b.bin(op, grow(depth-1), grow(depth-1))
			case r < 0.63 && len(made) > 0:
				return made[b.rng.Intn(len(made))] // a second use of an earlier node
			case r < 0.66:
				n = b.bin(core.OpMultiply, b.x(), b.v)
			case r < 0.75:
				n = b.bin(core.OpMultiply, b.constant(), b.x())
			case r < 0.85:
				n = b.times(b.rotate(steps[b.rng.Intn(len(steps))]))
			default:
				n = b.product()
			}
			made = append(made, n)
			return n
		}
		b.output("out", grow(6))
		if seed%3 == 0 {
			b.output("extra", made[b.rng.Intn(len(made))])
		}
		stats, _ := runBothWays(t, b.p, execute.SchedulerParallel)
		t.Logf("seed %d: %d instructions, %d chains over %d terms", seed, stats.Instructions, stats.FusedChains, stats.FusedTerms)
	}
}
