package rewrite_test

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"eva/internal/analysis"
	"eva/internal/core"
	"eva/internal/execute"
	"eva/internal/rewrite"
)

// randomProgram generates a random EVA input program: a DAG of adds,
// subtractions, multiplications, rotations, negations and plaintext constants
// over a couple of Cipher inputs, with bounded multiplicative depth so the
// scales stay meaningful.
func randomProgram(rng *rand.Rand) *core.Program {
	const vecSize = 8
	p := core.MustNewProgram("random", vecSize)
	x, _ := p.NewInput("x", core.TypeCipher, vecSize, 30)
	y, _ := p.NewInput("y", core.TypeCipher, vecSize, 25)
	v, _ := p.NewInput("v", core.TypeVector, vecSize, 20)
	pool := []*core.Term{x, y, v}
	depth := map[*core.Term]int{x: 0, y: 0, v: 0}

	nodes := 3 + rng.Intn(18)
	for i := 0; i < nodes; i++ {
		a := pool[rng.Intn(len(pool))]
		var t *core.Term
		switch rng.Intn(7) {
		case 0, 1:
			b := pool[rng.Intn(len(pool))]
			t, _ = p.NewBinary(core.OpAdd, a, b)
			depth[t] = maxInt(depth[a], depth[b])
		case 2:
			b := pool[rng.Intn(len(pool))]
			t, _ = p.NewBinary(core.OpSub, a, b)
			depth[t] = maxInt(depth[a], depth[b])
		case 3:
			b := pool[rng.Intn(len(pool))]
			// Bound the multiplicative depth to keep scaled values sane.
			if depth[a]+depth[b] > 3 {
				t, _ = p.NewBinary(core.OpAdd, a, b)
				depth[t] = maxInt(depth[a], depth[b])
			} else {
				t, _ = p.NewBinary(core.OpMultiply, a, b)
				depth[t] = depth[a] + depth[b] + 1
			}
		case 4:
			c, _ := p.NewScalarConstant(float64(rng.Intn(5))-2, 15)
			t, _ = p.NewBinary(core.OpMultiply, a, c)
			depth[t] = depth[a]
		case 5:
			t, _ = p.NewRotation(core.OpRotateLeft, a, rng.Intn(vecSize))
			depth[t] = depth[a]
		default:
			t, _ = p.NewUnary(core.OpNegate, a)
			depth[t] = depth[a]
		}
		pool = append(pool, t)
	}
	_ = p.AddOutput("out", pool[len(pool)-1], 30)
	_ = p.AddOutput("aux", pool[rng.Intn(len(pool))], 30)
	return p
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func randomInputsFor(p *core.Program, rng *rand.Rand) execute.Inputs {
	in := execute.Inputs{}
	for _, t := range p.Inputs() {
		v := make([]float64, t.VecWidth)
		for i := range v {
			v[i] = rng.Float64()*2 - 1
		}
		in[t.Name] = v
	}
	return in
}

// TestTransformPreservesReferenceSemantics is the compiler's core invariant:
// the inserted RESCALE, MOD_SWITCH, MATCH-SCALE and RELINEARIZE instructions
// must not change the program's reference semantics (they only manage scheme
// bookkeeping), and the transformed program must pass every validation pass.
func TestTransformPreservesReferenceSemantics(t *testing.T) {
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		prog := randomProgram(rng)
		in := randomInputsFor(prog, rng)
		before, err := execute.RunReference(prog, in)
		if err != nil {
			t.Logf("seed %d: reference failed: %v", seed, err)
			return false
		}
		transformed := prog.Clone()
		if err := rewrite.Transform(transformed, rewrite.DefaultOptions()); err != nil {
			t.Logf("seed %d: transform failed: %v", seed, err)
			return false
		}
		if _, _, err := analysis.Validate(transformed, 60); err != nil {
			t.Logf("seed %d: validation failed: %v", seed, err)
			return false
		}
		after, err := execute.RunReference(transformed, in)
		if err != nil {
			t.Logf("seed %d: transformed reference failed: %v", seed, err)
			return false
		}
		for name, want := range before {
			got := after[name]
			for i := range want {
				if math.Abs(got[i]-want[i]) > 1e-9 {
					t.Logf("seed %d: output %q slot %d changed from %g to %g", seed, name, i, want[i], got[i])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestTransformIdempotentChains checks that on random programs the compiled
// chains are conforming regardless of the modulus-switching strategy.
func TestTransformChainsConformingBothStrategies(t *testing.T) {
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for _, strategy := range []rewrite.ModSwitchStrategy{rewrite.ModSwitchEager, rewrite.ModSwitchLazy} {
			prog := randomProgram(rng)
			opts := rewrite.DefaultOptions()
			opts.ModSwitch = strategy
			if err := rewrite.Transform(prog, opts); err != nil {
				t.Logf("seed %d: transform failed: %v", seed, err)
				return false
			}
			// Validate reports a chain violation ahead of any other kind.
			_, _, err := analysis.Validate(prog, opts.MaxRescaleLog)
			if ce, ok := err.(*analysis.ConstraintError); ok && ce.Constraint == 1 {
				t.Logf("seed %d strategy %d: chains not conforming: %v", seed, strategy, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestSerializationRoundTripPreservesSemantics: serializing and reloading a
// transformed program must not change its reference behaviour.
func TestSerializationRoundTripPreservesSemantics(t *testing.T) {
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		prog := randomProgram(rng)
		if err := rewrite.Transform(prog, rewrite.DefaultOptions()); err != nil {
			return false
		}
		in := randomInputsFor(prog, rng)
		want, err := execute.RunReference(prog, in)
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := prog.Serialize(&buf); err != nil {
			t.Logf("seed %d: serialize: %v", seed, err)
			return false
		}
		back, err := core.Deserialize(&buf)
		if err != nil {
			t.Logf("seed %d: deserialize: %v", seed, err)
			return false
		}
		got, err := execute.RunReference(back, in)
		if err != nil {
			t.Logf("seed %d: reloaded reference: %v", seed, err)
			return false
		}
		for name, w := range want {
			g := got[name]
			for i := range w {
				if math.Abs(g[i]-w[i]) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
