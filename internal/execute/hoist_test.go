package execute

import (
	"bytes"
	"testing"

	"eva/internal/ckks"
	"eva/internal/compile"
	"eva/internal/core"
)

// TestHoistedRotationDispatch checks that the executor dispatches a shared-
// source rotation set as one hoisted batch (visible in RunStats and in the
// records' Hoisted flag) and that every member's output is byte for byte what
// Evaluator.RotateLeft makes of the same input ciphertext: hoisting is
// bit-exact. The rotations are program outputs, so none is left over Q∪P;
// step 2 is taken twice, so the batch covers three distinct steps.
func TestHoistedRotationDispatch(t *testing.T) {
	p := core.MustNewProgram("rotations", 8)
	x, _ := p.NewInput("x", core.TypeCipher, 8, 40)
	steps := map[string]int{"r1": 1, "r2": 2, "r2again": 2, "r5": 5}
	for name, k := range steps {
		rot, _ := p.NewRotation(core.OpRotateLeft, x, k)
		if err := p.AddOutput(name, rot, 40); err != nil {
			t.Fatal(err)
		}
	}
	res := compileForTest(t, p, compile.Options{})
	prng := ckks.NewTestPRNG(11)
	ctx, keys, err := NewContext(res, prng)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := EncryptInputs(ctx, res, keys, randomInputs(p, 11), prng)
	if err != nil {
		t.Fatal(err)
	}
	members := 0
	out, err := Run(ctx, res, enc, RunOptions{
		Scheduler: SchedulerSequential,
		OnInstruction: func(_ *core.Term, rec InstrRecord) {
			if rec.Hoisted {
				members++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Stats.HoistedBatches != 1 || out.Stats.HoistedRotations != 3 {
		t.Errorf("run stats = %d batches / %d rotations, want 1 / 3", out.Stats.HoistedBatches, out.Stats.HoistedRotations)
	}
	if members != len(steps) {
		t.Errorf("%d instruction records flagged Hoisted, want %d", members, len(steps))
	}
	for name, k := range steps {
		want, err := ctx.Evaluator.RotateLeft(enc.Cipher["x"], k)
		if err != nil {
			t.Fatal(err)
		}
		wantBytes, err := want.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		got, err := out.Cipher[name].MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantBytes) {
			t.Errorf("output %q differs from RotateLeft by %d (hoisting must be bit-exact)", name, k)
		}
	}
}

// TestHoistedRotationParallelScheduler runs a program with a hoist set under
// the parallel scheduler, where the set is one dispatch unit: its batch runs
// exactly once.
func TestHoistedRotationParallelScheduler(t *testing.T) {
	p := buildRotationProgram(t, 8)
	res := compileForTest(t, p, compile.Options{})
	in := randomInputs(p, 13)
	_, out := runEncrypted(t, res, in, RunOptions{Workers: 4})
	if out.Stats.HoistedBatches != 1 || out.Stats.HoistedRotations != 3 {
		t.Errorf("parallel run stats = %d batches / %d rotations, want 1 / 3",
			out.Stats.HoistedBatches, out.Stats.HoistedRotations)
	}
}
