package execute

import (
	"testing"

	"eva/internal/compile"
	"eva/internal/core"
)

// TestOnInstructionRecords checks the profiler hook: every scheduled term
// produces exactly one record, ciphertext results report a plausible post-op
// level/scale/footprint, operand footprints are read before release, and
// hoisted rotation members are flagged, and each record's ID names its term's
// instruction.
func TestOnInstructionRecords(t *testing.T) {
	p := buildRotationProgram(t, 8)
	res := compileForTest(t, p, compile.Options{})
	in := randomInputs(p, 13)

	maxLevel := len(res.Plan.BitSizes) - 1
	recs := map[*core.Term]InstrRecord{}
	_, out := runEncrypted(t, res, in, RunOptions{
		Scheduler: SchedulerSequential,
		OnInstruction: func(term *core.Term, rec InstrRecord) {
			if _, dup := recs[term]; dup {
				t.Errorf("term %s recorded twice", term)
			}
			if rec.ID < 0 || int(rec.ID) >= len(res.Instrs) || res.Instrs[rec.ID].Term != term {
				t.Errorf("term %s recorded with id %d, which is not its instruction", term, rec.ID)
			}
			recs[term] = rec
		},
	})
	total := len(res.Program.TopoSort())
	if len(recs) != total {
		t.Fatalf("recorded %d instructions, want %d", len(recs), total)
	}
	if out.Stats.HoistedBatches == 0 {
		t.Fatal("test program dispatched no hoisted batch; rotation fixture changed?")
	}
	hoisted := 0
	for term, rec := range recs {
		if rec.Wall < 0 {
			t.Errorf("%s: negative wall time %v", term, rec.Wall)
		}
		if rec.Operands != len(term.Parms()) {
			t.Errorf("%s: %d operands recorded, want %d", term, rec.Operands, len(term.Parms()))
		}
		if rec.Cipher {
			if rec.Level < 0 || rec.Level > maxLevel {
				t.Errorf("%s: level %d outside chain [0,%d]", term, rec.Level, maxLevel)
			}
			if !(rec.Scale > 0) {
				t.Errorf("%s: non-positive scale %v", term, rec.Scale)
			}
			if rec.OutBytes <= 0 {
				t.Errorf("%s: cipher result with %d bytes", term, rec.OutBytes)
			}
		} else if rec.Level != -1 {
			t.Errorf("%s: plain result reports level %d, want -1", term, rec.Level)
		}
		if len(term.Parms()) > 0 && rec.OperandBytes <= 0 {
			t.Errorf("%s: operand bytes %d, want > 0 (read after release?)", term, rec.OperandBytes)
		}
		if rec.Hoisted {
			hoisted++
			if !term.Op.IsRotation() {
				t.Errorf("%s: non-rotation flagged hoisted", term)
			}
		}
	}
	members := 0
	for _, set := range res.Hoists {
		members += len(set.Steps)
	}
	if hoisted != members {
		t.Errorf("%d records flagged hoisted, want the hoist sets' %d members", hoisted, members)
	}
}
