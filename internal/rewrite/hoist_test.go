package rewrite

import (
	"testing"

	"eva/internal/core"
)

// TestRotationSets builds a program with two cipher sources rotated several
// times, a plain-vector rotation, and a lone rotation, and checks that only
// the genuinely shareable groups come back, in deterministic order.
func TestRotationSets(t *testing.T) {
	p, err := core.NewProgram("rotsets", 8)
	if err != nil {
		t.Fatal(err)
	}
	x, err := p.NewInput("x", core.TypeCipher, 8, 30)
	if err != nil {
		t.Fatal(err)
	}
	y, err := p.NewInput("y", core.TypeCipher, 8, 30)
	if err != nil {
		t.Fatal(err)
	}
	v, err := p.NewInput("v", core.TypeVector, 8, 30)
	if err != nil {
		t.Fatal(err)
	}

	// Group 1: three rotations of x, one of them a ROTATE_RIGHT, plus a
	// duplicate step that must be kept as a member but deduplicated in the
	// step list.
	x1, _ := p.NewRotation(core.OpRotateLeft, x, 1)
	x2, _ := p.NewRotation(core.OpRotateLeft, x, 2)
	xr, _ := p.NewRotation(core.OpRotateRight, x, 3)
	xdup, _ := p.NewRotation(core.OpRotateLeft, x, 2)

	// Group 2: two rotations of x1 (a rotation result is itself a source).
	n1, _ := p.NewRotation(core.OpRotateLeft, x1, 1)
	n2, _ := p.NewRotation(core.OpRotateLeft, x1, 4)

	// Not groups: a lone rotation of y, and rotations of a plain vector.
	lone, _ := p.NewRotation(core.OpRotateLeft, y, 1)
	v1, _ := p.NewRotation(core.OpRotateLeft, v, 1)
	v2, _ := p.NewRotation(core.OpRotateLeft, v, 2)

	sum := x2
	for _, term := range []*core.Term{xr, xdup, n1, n2, lone, v1, v2} {
		s, err := p.NewBinary(core.OpAdd, sum, term)
		if err != nil {
			t.Fatal(err)
		}
		sum = s
	}
	if err := p.AddOutput("out", sum, 30); err != nil {
		t.Fatal(err)
	}

	sets := RotationSets(p)
	if len(sets) != 2 {
		t.Fatalf("RotationSets returned %d sets, want 2", len(sets))
	}
	wantMembers := [][]*core.Term{{x1, x2, xr, xdup}, {n1, n2}}
	for i, want := range wantMembers {
		if len(sets[i]) != len(want) {
			t.Fatalf("set %d has %d members, want %d", i, len(sets[i]), len(want))
		}
		for j, m := range want {
			if sets[i][j] != m {
				t.Errorf("set %d member %d = %s, want %s", i, j, sets[i][j], m)
			}
		}
	}
}

// TestFoldIdentityRotations: a rotation by a multiple of the vector size, left
// or right, of a ciphertext or a plain vector, alone or chained, is bypassed —
// the output naming it and the instruction using it both get its operand —
// and any other rotation stays.
func TestFoldIdentityRotations(t *testing.T) {
	const V = 8
	rot := func(p *core.Program, op core.OpCode, a *core.Term, by int) *core.Term {
		r, err := p.NewRotation(op, a, by)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	left, right := core.OpRotateLeft, core.OpRotateRight
	cases := []struct {
		name string
		// build returns the term the program outputs and uses, and the term
		// that must take its place after the fold.
		build  func(p *core.Program, x, v *core.Term) (out, want *core.Term)
		folded int
	}{
		{"left 0", func(p *core.Program, x, v *core.Term) (*core.Term, *core.Term) { return rot(p, left, x, 0), x }, 1},
		{"right 0", func(p *core.Program, x, v *core.Term) (*core.Term, *core.Term) { return rot(p, right, x, 0), x }, 1},
		{"left V", func(p *core.Program, x, v *core.Term) (*core.Term, *core.Term) { return rot(p, left, x, V), x }, 1},
		{"left -V", func(p *core.Program, x, v *core.Term) (*core.Term, *core.Term) { return rot(p, left, x, -V), x }, 1},
		{"right V", func(p *core.Program, x, v *core.Term) (*core.Term, *core.Term) { return rot(p, right, x, V), x }, 1},
		{"right -V", func(p *core.Program, x, v *core.Term) (*core.Term, *core.Term) { return rot(p, right, x, -V), x }, 1},
		{"left 2V", func(p *core.Program, x, v *core.Term) (*core.Term, *core.Term) { return rot(p, left, x, 2*V), x }, 1},
		{"chain of two", func(p *core.Program, x, v *core.Term) (*core.Term, *core.Term) {
			return rot(p, right, rot(p, left, x, V), 2*V), x
		}, 2},
		{"instruction operand", func(p *core.Program, x, v *core.Term) (*core.Term, *core.Term) {
			sum, err := p.NewBinary(core.OpAdd, x, x)
			if err != nil {
				t.Fatal(err)
			}
			return rot(p, left, sum, 0), sum
		}, 1},
		{"plain operand", func(p *core.Program, x, v *core.Term) (*core.Term, *core.Term) { return rot(p, left, v, V), v }, 1},
		{"over a real rotation", func(p *core.Program, x, v *core.Term) (*core.Term, *core.Term) {
			r := rot(p, left, x, 1)
			return rot(p, right, r, V), r
		}, 1},
		{"left V/2 stays", func(p *core.Program, x, v *core.Term) (*core.Term, *core.Term) {
			r := rot(p, left, x, V/2)
			return r, r
		}, 0},
		{"left V+1 stays", func(p *core.Program, x, v *core.Term) (*core.Term, *core.Term) {
			r := rot(p, left, x, V+1)
			return r, r
		}, 0},
		{"right 3 stays", func(p *core.Program, x, v *core.Term) (*core.Term, *core.Term) {
			r := rot(p, right, x, 3)
			return r, r
		}, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := core.MustNewProgram("fold", V)
			x, err := p.NewInput("x", core.TypeCipher, V, 30)
			if err != nil {
				t.Fatal(err)
			}
			v, err := p.NewInput("v", core.TypeVector, V, 30)
			if err != nil {
				t.Fatal(err)
			}
			out, want := c.build(p, x, v)
			neg, err := p.NewUnary(core.OpNegate, out)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.AddOutput("out", out, 30); err != nil {
				t.Fatal(err)
			}
			if err := p.AddOutput("neg", neg, 30); err != nil {
				t.Fatal(err)
			}
			if got := FoldIdentityRotations(p); got != c.folded {
				t.Errorf("folded %d rotations, want %d", got, c.folded)
			}
			if got := p.Outputs()[0].Term; got != want {
				t.Errorf("output names %s, want %s", got, want)
			}
			if got := neg.Parm(0); got != want {
				t.Errorf("the negation uses %s, want %s", got, want)
			}
			for _, term := range p.TopoSort() {
				if term.Op.IsRotation() && term.EffectiveRotation()%V == 0 {
					t.Errorf("live identity rotation %s", term)
				}
			}
		})
	}
}
