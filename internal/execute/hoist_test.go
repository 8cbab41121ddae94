package execute

import (
	"testing"

	"eva/internal/compile"
	"eva/internal/core"
)

// TestHoistedRotationDispatch checks that the executor dispatches a shared-
// source rotation group as one hoisted batch (visible in RunStats and in the
// records' Hoisted flag), that disabling hoisting suppresses it, and
// that both paths decrypt to identical values — hoisting is bit-exact, so
// this is float equality, not a tolerance check. The program rotates by 0–3;
// Compile folds the rotation by 0 away, so the group has three members.
func TestHoistedRotationDispatch(t *testing.T) {
	p := buildRotationProgram(t, 8)
	res := compileForTest(t, p, compile.Options{})
	in := randomInputs(p, 11)

	members := 0
	hoisted, outHoisted := runEncrypted(t, res, in, RunOptions{
		Scheduler: SchedulerSequential,
		OnInstruction: func(_ *core.Term, rec InstrRecord) {
			if rec.Hoisted {
				members++
			}
		},
	})
	if outHoisted.Stats.HoistedBatches != 1 || outHoisted.Stats.HoistedRotations != 3 {
		t.Errorf("hoisted run stats = %d batches / %d rotations, want 1 / 3",
			outHoisted.Stats.HoistedBatches, outHoisted.Stats.HoistedRotations)
	}
	if members != 3 {
		t.Errorf("%d instruction records flagged Hoisted, want 3", members)
	}

	plain, outPlain := runEncrypted(t, res, in, RunOptions{
		Scheduler:       SchedulerSequential,
		DisableHoisting: true,
	})
	if outPlain.Stats.HoistedBatches != 0 || outPlain.Stats.HoistedRotations != 0 {
		t.Errorf("DisableHoisting run still reports %d batches / %d rotations",
			outPlain.Stats.HoistedBatches, outPlain.Stats.HoistedRotations)
	}

	for name, want := range plain {
		got, ok := hoisted[name]
		if !ok || len(got) != len(want) {
			t.Fatalf("output %q shape mismatch between hoisted and sequential runs", name)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("output %q slot %d: hoisted %v != sequential %v (hoisting must be bit-exact)",
					name, i, got[i], want[i])
			}
		}
	}
}

// TestHoistedRotationParallelScheduler runs the same program under the
// parallel scheduler, where several group members can race to compute the
// batch; exactly one must win.
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
