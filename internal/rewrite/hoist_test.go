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

	if got := EffectiveRotation(xr); got != -3 {
		t.Errorf("EffectiveRotation(rotate-right 3) = %d, want -3", got)
	}
}
